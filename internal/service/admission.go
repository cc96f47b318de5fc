package service

import (
	"context"

	"dais/internal/core"
	"dais/internal/resil"
	"dais/internal/soap"
)

// WithAdmission bounds the endpoint's concurrency: requests beyond the
// configured in-flight caps are shed immediately with a
// ServiceBusyFault on HTTP 503 + Retry-After instead of queuing.
// Endpoints without this option accept unbounded concurrency, as
// before.
func WithAdmission(cfg resil.AdmissionConfig) EndpointOption {
	return func(e *Endpoint) { e.gate = resil.NewGate(cfg) }
}

// Gate returns the endpoint's admission gate, or nil when admission
// control is disabled.
func (e *Endpoint) Gate() *resil.Gate { return e.gate }

// admissionInterceptor enforces the endpoint's admission gate around
// every dispatched request. It sits inside the telemetry interceptor so
// shed requests still show up in the request/fault metrics, and outside
// the user interceptors so load is dropped before any per-request work.
// The per-resource cap keys on the DataResourceAbstractName body
// element; service-level operations (factories, resource lists) consume
// only the global cap.
func (e *Endpoint) admissionInterceptor() soap.Interceptor {
	gate, name := e.gate, e.svc.Name()
	var countShed func(service, scope string)
	if e.obs != nil {
		countShed = resil.ShedObserver(e.obs.Registry)
	}
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		resource := ""
		if body := env.BodyEntry(); body != nil {
			resource = body.FindText(core.NSDAI, "DataResourceAbstractName")
		}
		release, scope, err := gate.Acquire(resource)
		if err != nil {
			if countShed != nil {
				countShed(name, scope)
			}
			return nil, ToSOAPFault(err)
		}
		defer release()
		return next(ctx, action, env)
	}
}

// normalizeFaults maps typed DAIS faults escaping the interceptor chain
// (the admission gate, fault-injection interceptors, timeouts) to SOAP
// faults with structured detail and transport hints. Handlers map their
// own errors in bind; this catches errors produced by the interceptors
// themselves, which never reach bind's mapping.
func normalizeFaults() soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		resp, err := next(ctx, action, env)
		if err != nil {
			if _, ok := err.(*soap.Fault); !ok && core.FaultName(err) != "" {
				return resp, ToSOAPFault(err)
			}
		}
		return resp, err
	}
}
