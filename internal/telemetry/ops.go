package telemetry

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
)

// MountOps registers the observability endpoints every DAIS command
// serves: /metrics (the observer's registry in the Prometheus text
// format), /healthz (the command's own liveness report) and /spans
// (the most recent request spans as JSON).
func (o *Observer) MountOps(mux *http.ServeMux, healthz http.Handler) {
	mux.Handle("/metrics", o.Registry.Handler())
	mux.Handle("/healthz", healthz)
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.Tracer.Recent(100)) //nolint:errcheck // client went away
	})
}

// OpsMux builds the surface of a dedicated ops listener: the MountOps
// endpoints plus, when withPprof, net/http/pprof under /debug/pprof/.
func (o *Observer) OpsMux(healthz http.Handler, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	o.MountOps(mux, healthz)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ServeOps is the -ops-addr / -pprof pair of a DAIS command: it serves
// OpsMux on addr, isolated from data-path traffic, says so on logger,
// and returns the server (for Shutdown) and the URL it is bound to. An
// empty addr means no ops listener: the observability endpoints stay on
// the main listener only, pprof is not exposed whatever withPprof says
// (logged as a warning), and the server returned is nil.
func (o *Observer) ServeOps(logger *slog.Logger, addr string, healthz http.Handler, withPprof bool) (*http.Server, string, error) {
	if addr == "" {
		if withPprof {
			logger.Warn("-pprof requires -ops-addr; pprof not exposed")
		}
		return nil, "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: o.OpsMux(healthz, withPprof)}
	go srv.Serve(ln) //nolint:errcheck // ends when the caller shuts srv down
	url := "http://" + ln.Addr().String()
	logger.Info("ops listener ready", "addr", url, "pprof", withPprof)
	return srv, url, nil
}
