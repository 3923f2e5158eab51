package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// TraceHeader is the HTTP header carrying the request trace ID. A client
// may supply its own (any non-empty value is adopted verbatim); otherwise
// the server mints one. The response always echoes the header, and every
// request log line carries the same ID, so one grep joins a worker-side
// failure to the server's view of the request.
const TraceHeader = "X-Trace-Id"

// WithMetrics enables the observability layer on a registry owned by the
// caller: per-endpoint request counters, status-class counters, and
// latency histograms; budget / pool / lease gauges; EM convergence
// telemetry from /api/results inference runs; and the /metrics exposition
// endpoint. A server built without this option carries zero
// instrumentation on the request path (the handlers are mounted bare).
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metricsReg = reg }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the server mux.
// Profiling endpoints are opt-in: they expose stacks and heap contents,
// so they stay off unless explicitly requested.
func WithPprof() Option {
	return func(s *Server) { s.pprofOn = true }
}

// WithRequestLog enables structured per-request logging to logger: one
// Info record per request with the trace ID, method, path, status, and
// duration. Works with or without WithMetrics.
func WithRequestLog(logger *slog.Logger) Option {
	return func(s *Server) { s.reqLog = logger }
}

// serverObs bundles the per-endpoint instruments and the request logger.
// It exists only when WithMetrics, WithRequestLog, or WithTracing was
// given; a nil *serverObs means the handler chain is completely bare.
type serverObs struct {
	reg       *obs.Registry // nil when only request logging is on
	logger    *slog.Logger  // nil when only metrics are on
	em        *obs.EMMetrics
	endpoints map[string]*endpointMetrics
}

// endpointMetrics holds one route's instruments. All fields are nil when
// metrics are off (log-only mode); obs metrics no-op through nil.
type endpointMetrics struct {
	latency *obs.Histogram
	classes [6]*obs.Counter // index code/100: classes[2] = 2xx, ...
}

func newServerObs(reg *obs.Registry, logger *slog.Logger) *serverObs {
	return &serverObs{
		reg:       reg,
		logger:    logger,
		em:        obs.NewEMMetrics(reg),
		endpoints: make(map[string]*endpointMetrics),
	}
}

// endpoint builds (at wiring time, not per request) the instruments for
// one route.
func (o *serverObs) endpoint(route string) *endpointMetrics {
	if m, ok := o.endpoints[route]; ok {
		return m
	}
	m := &endpointMetrics{}
	if o.reg != nil {
		el := obs.L("endpoint", route)
		m.latency = o.reg.Histogram("crowdkit_http_request_seconds", obs.DefLatencyBuckets, el)
		for c := 1; c <= 5; c++ {
			m.classes[c] = o.reg.Counter("crowdkit_http_requests_total",
				el, obs.L("code", classLabel(c)))
		}
	}
	o.endpoints[route] = m
	return m
}

func classLabel(c int) string {
	return string([]byte{byte('0' + c), 'x', 'x'})
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route's handler with tracing, metrics, and request
// logging. With observability off it returns the handler untouched, so
// the uninstrumented server is bit-for-bit the old handler chain.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.obsv == nil {
		return h
	}
	m := s.obsv.endpoint(route)
	logger := s.obsv.logger
	col := s.traceCol // nil = tracing off: WithCollector and the span no-op
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithCollector(r.Context(), col)
		if id := r.Header.Get(TraceHeader); id != "" {
			ctx = obs.WithTraceID(ctx, id)
		}
		ctx, span := obs.StartSpan(ctx, route)
		w.Header().Set(TraceHeader, span.TraceID)
		if span.Recording() {
			span.SetAttr(obs.Str("method", r.Method), obs.Str("path", r.URL.Path))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		if span.Recording() {
			span.SetAttr(obs.Int("status", int64(sw.code)))
			if sw.code >= 500 {
				span.SetError(fmt.Errorf("HTTP %d", sw.code))
			}
		}
		d := span.EndTo(m.latency)
		if c := sw.code / 100; c >= 1 && c <= 5 {
			m.classes[c].Inc()
		}
		if logger != nil {
			logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("trace", span.TraceID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Duration("duration", d),
			)
		}
	}
}

// resultsMetrics instruments the incremental results pipeline. The zero
// value (metrics off) is all nil counters, which no-op — the serving path
// increments unconditionally.
type resultsMetrics struct {
	warmHits     *obs.Counter // EM runs seeded from a previous result
	warmMisses   *obs.Counter // EM runs that fell back to cold start
	deltaBuilds  *obs.Counter // datasets extended via AppendDelta
	fullBuilds   *obs.Counter // datasets rebuilt from the full answer set (FromAnswers)
	groupSkips   *obs.Counter // groups re-served unchanged (no build, no inference)
	flightShared *obs.Counter // pollers that piggybacked on another's run
}

// wireObservability mounts the exposition and profiling endpoints and
// registers the pull-style gauges. Called by New after the options are
// applied and the core state exists.
func (s *Server) wireObservability() {
	if s.metricsReg != nil || s.reqLog != nil || s.traceCol != nil {
		s.obsv = newServerObs(s.metricsReg, s.reqLog)
	}
	if s.traceCol != nil && s.metricsReg != nil {
		s.traceCol.RegisterMetrics(s.metricsReg)
	}
	if s.metricsReg != nil {
		s.budget.RegisterMetrics(s.metricsReg)
		s.cpool.RegisterMetrics(s.metricsReg)
		s.metricsReg.RegisterCounter("crowdkit_leases_expired_total", &s.expired)
		reg := s.metricsReg
		s.resM = resultsMetrics{
			warmHits:     reg.Counter("crowdkit_results_warm_hits_total"),
			warmMisses:   reg.Counter("crowdkit_results_warm_misses_total"),
			deltaBuilds:  reg.Counter("crowdkit_results_delta_builds_total"),
			fullBuilds:   reg.Counter("crowdkit_results_full_builds_total"),
			groupSkips:   reg.Counter("crowdkit_results_group_skips_total"),
			flightShared: reg.Counter("crowdkit_results_flight_shared_total"),
		}
		if s.store != nil {
			s.store.RegisterMetrics(s.metricsReg)
		}
		if s.cqlMgr != nil {
			s.wireCQLObservability()
		}
	}
}

// mountDebug adds /metrics and (opt-in) /debug/pprof to the mux. The
// exposition endpoint is served straight from the registry and is not
// self-instrumented — scrapes should not inflate the request metrics
// they read.
func (s *Server) mountDebug() {
	if s.metricsReg != nil {
		s.mux.Handle("GET /metrics", s.metricsReg.Handler())
	}
	if s.pprofOn {
		// pprof.Index dispatches /debug/pprof/<profile> (heap, goroutine,
		// block, ...) itself; the named handlers cover the non-lookup
		// endpoints.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// emObserver returns the observer handed to /api/results inference runs,
// or nil (free) when metrics are off.
func (s *Server) emObserver() obs.EMObserver {
	if s.obsv == nil || s.obsv.reg == nil {
		return nil
	}
	return s.obsv.em
}
