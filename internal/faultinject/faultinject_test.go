package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dais/internal/core"
	"dais/internal/soap"
	"dais/internal/xmlutil"
)

// reply is what the test server answers every exchange with.
var reply = soap.NewEnvelope(xmlutil.NewElement("urn:t", "Reply")).Marshal()

// server answers every POST with reply and counts what reached it.
func server(t *testing.T) (url string, served *atomic.Int32) {
	served = new(atomic.Int32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write(reply) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts.URL, served
}

// post sends one SOAP-shaped exchange through ft.
func post(ft *Transport, url, action string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader("<request/>"))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := (&http.Client{Transport: ft}).Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestTransportModes: each mode, injected on every exchange, gives the
// consumer its outcome, and the transport counts what it did.
func TestTransportModes(t *testing.T) {
	url, served := server(t)
	cases := []struct {
		mode    Mode
		reaches bool // the request reaches the server
		check   func(resp *http.Response, body []byte, err error) string
	}{
		{ModeDrop, false, func(_ *http.Response, _ []byte, err error) string {
			if err == nil {
				return "a dropped exchange must surface a transport error"
			}
			return ""
		}},
		{ModeDelay, true, func(resp *http.Response, body []byte, err error) string {
			if err != nil || resp.StatusCode != http.StatusOK || string(body) != string(reply) {
				return "a delayed exchange must forward the server's reply"
			}
			return ""
		}},
		{ModeCorrupt, true, func(resp *http.Response, body []byte, err error) string {
			if err != nil || resp.StatusCode != http.StatusOK {
				return "a corrupted exchange must still deliver a reply"
			}
			if _, perr := soap.ParseEnvelope(body); perr == nil {
				return "a corrupted reply must not parse"
			}
			return ""
		}},
		{ModeBusy, false, func(resp *http.Response, _ []byte, err error) string {
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "3" {
				return "a busy exchange must answer 503 with the plan's Retry-After"
			}
			return ""
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.mode), func(t *testing.T) {
			served.Store(0)
			ft := NewTransport(nil, Plan{Seed: 1, Rate: 1, Modes: []Mode{tc.mode},
				Delay: time.Millisecond, RetryAfter: 3 * time.Second})
			if msg := tc.check(post(ft, url, "urn:a")); msg != "" {
				t.Error(msg)
			}
			if ft.Injected(tc.mode) != 1 || ft.InjectedTotal() != 1 || ft.Attempts("urn:a") != 1 {
				t.Errorf("injected %d (total %d) in %d attempts, want 1 in 1",
					ft.Injected(tc.mode), ft.InjectedTotal(), ft.Attempts("urn:a"))
			}
			if reached := served.Load() == 1; reached != tc.reaches {
				t.Errorf("request reached the server: %v, want %v", reached, tc.reaches)
			}
		})
	}
}

// TestTransportMatchAndRate: only matching actions are eligible, and a
// rate of zero forwards everything while still counting attempts.
func TestTransportMatchAndRate(t *testing.T) {
	url, served := server(t)
	ft := NewTransport(nil, Plan{Seed: 1, Rate: 1, Match: func(a string) bool { return a == "urn:flaky" }})
	if _, _, err := post(ft, url, "urn:safe"); err != nil {
		t.Errorf("unmatched action was disturbed: %v", err)
	}
	if _, _, err := post(ft, url, "urn:flaky"); err == nil {
		t.Error("matched action at rate 1 was forwarded")
	}
	ft.SetRate(0)
	for i := 0; i < 5; i++ {
		if _, _, err := post(ft, url, "urn:flaky"); err != nil {
			t.Fatalf("rate 0 disturbed an exchange: %v", err)
		}
	}
	if ft.InjectedTotal() != 1 || ft.Injected(ModeDrop) != 1 || ft.Attempts("urn:flaky") != 6 || ft.Attempts("urn:safe") != 1 {
		t.Errorf("injected %d; attempts flaky %d, safe %d", ft.InjectedTotal(), ft.Attempts("urn:flaky"), ft.Attempts("urn:safe"))
	}
	if served.Load() != 6 {
		t.Errorf("%d requests reached the server, want 6", served.Load())
	}
}

// TestTransportSeedReplays: the same seed gives the same sequence of
// modes, so a failing chaos run can be replayed.
func TestTransportSeedReplays(t *testing.T) {
	sequence := func(seed int64) string {
		ft := NewTransport(nil, Plan{Seed: seed, Rate: 0.5, Modes: []Mode{ModeDrop, ModeDelay, ModeCorrupt, ModeBusy}})
		var b strings.Builder
		for i := 0; i < 64; i++ {
			b.WriteString(string(ft.decide("urn:a")) + ",")
		}
		return b.String()
	}
	if a, b := sequence(7), sequence(7); a != b {
		t.Errorf("seed 7 gave two sequences:\n%s\n%s", a, b)
	}
	if sequence(7) == sequence(8) {
		t.Error("seeds 7 and 8 gave the same sequence")
	}
}

// TestServerInterceptorModes: delay still dispatches, fault and busy
// answer instead of the handler, and nothing is disturbed at rate 0.
func TestServerInterceptorModes(t *testing.T) {
	want := soap.NewEnvelope(xmlutil.NewElement("urn:t", "Reply"))
	for _, tc := range []struct {
		mode     Mode
		rate     float64
		dispatch bool
	}{
		{ModeDelay, 1, true},
		{ModeFault, 1, false},
		{ModeBusy, 1, false},
		{ModeFault, 0, true},
	} {
		si := NewServerInterceptor(ServerPlan{Seed: 1, Rate: tc.rate, Modes: []Mode{tc.mode},
			Delay: time.Millisecond, RetryAfter: 3 * time.Second})
		dispatched := false
		got, err := si.Interceptor()(context.Background(), "urn:a", nil,
			func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
				dispatched = true
				return want, nil
			})
		if dispatched != tc.dispatch {
			t.Errorf("%s at rate %v: dispatched %v, want %v", tc.mode, tc.rate, dispatched, tc.dispatch)
		}
		var fault *soap.Fault
		var busy *core.ServiceBusyFault
		switch {
		case tc.dispatch:
			if err != nil || got != want {
				t.Errorf("%s at rate %v: %v, %v, want the handler's reply", tc.mode, tc.rate, got, err)
			}
		case tc.mode == ModeFault:
			if !errors.As(err, &fault) || fault.Code != "Server" {
				t.Errorf("fault mode answered %v, want a Server fault", err)
			}
		case tc.mode == ModeBusy:
			if !errors.As(err, &busy) || busy.RetryAfter != 3*time.Second {
				t.Errorf("busy mode answered %v, want a ServiceBusyFault with RetryAfter 3s", err)
			}
		}
		if wantN := int(tc.rate); si.Injected(tc.mode) != wantN {
			t.Errorf("%s at rate %v: injected %d, want %d", tc.mode, tc.rate, si.Injected(tc.mode), wantN)
		}
	}
}
