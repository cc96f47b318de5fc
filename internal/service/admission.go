package service

import (
	"context"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/soap"
	"dais/internal/telemetry"
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

// AdmissionInterceptor enforces an admission gate around every request
// a SOAP server dispatches: the endpoint's, and the gateway's. Installed
// inside the telemetry interceptor, shed requests still show up in the
// request/fault metrics; outside the user interceptors, load is dropped
// before any per-request work. The per-resource cap keys on the
// DataResourceAbstractName body element; service-level operations
// (factories, resource lists) consume only the global cap. A shed is a
// ServiceBusyFault (HTTP 503 + Retry-After), counted in dais_shed_total
// under service when obs is non-nil.
func AdmissionInterceptor(gate *resil.Gate, service string, obs *telemetry.Observer) soap.Interceptor {
	var countShed func(service, scope string)
	if obs != nil {
		countShed = resil.ShedObserver(obs.Registry)
	}
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		release, scope, err := gate.Acquire(ops.AbstractNameText(env.BodyEntry()))
		if err != nil {
			if countShed != nil {
				countShed(service, scope)
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
