package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// This file is the Router's HTTP serving skeleton: listener ownership, the
// draining fence, in-flight request accounting and the ordered graceful
// shutdown.

// Handler returns the router's root handler: the route mux behind the
// draining fence.  Exposed so tests and embedding callers can serve it from
// their own listener.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count before the fence check: a request that passes the check is
		// always visible to Shutdown's drain wait.
		rt.inflightMu.Lock()
		rt.inflightN++
		rt.inflightMu.Unlock()
		defer func() {
			rt.inflightMu.Lock()
			rt.inflightN--
			if rt.inflightN == 0 && rt.inflightIdle != nil {
				close(rt.inflightIdle)
				rt.inflightIdle = nil
			}
			rt.inflightMu.Unlock()
		}()
		if rt.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
			return
		}
		// The mux's built-in 404/405 responses are plain text; the API
		// contract says every non-2xx body is {"error":...} JSON, so those
		// defaults are rewritten on the way out and recorded under a
		// catch-all metrics label (they never reach an instrumented route).
		jw := &jsonErrorWriter{ResponseWriter: w}
		start := time.Now()
		rt.mux.ServeHTTP(jw, r)
		if jw.rewrote {
			rt.metrics.Observe("(unmatched)", jw.status, time.Since(start))
		}
	})
}

// Start listens on addr (e.g. ":8080", or "127.0.0.1:0" for an ephemeral
// port) and serves in a background goroutine.  It returns the bound address.
func (rt *Router) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.listener = ln
	rt.httpSrv = &http.Server{
		Handler:      rt.Handler(),
		ReadTimeout:  rt.opts.ReadTimeout,
		WriteTimeout: rt.opts.WriteTimeout,
	}
	go func() {
		err := rt.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			rt.serveErr = err
		}
		close(rt.serveDone)
	}()
	return ln.Addr().String(), nil
}

// Done closes when the accept loop has exited — after Shutdown, or early if
// Serve failed.  A daemon selects on it alongside its signal channel.
func (rt *Router) Done() <-chan struct{} { return rt.serveDone }

// ServeErr reports why the accept loop exited; it is meaningful once Done
// is closed and nil for a clean shutdown.
func (rt *Router) ServeErr() error { return rt.serveErr }

// Shutdown drains and closes, in the order that keeps every response whole:
//
//  1. the draining fence flips — requests arriving from here on get a
//     clean 503 without touching a backend;
//  2. http.Server.Shutdown stops the listener and waits (up to ctx) for
//     in-flight handlers to finish writing their responses;
//  3. the health prober stops and every backend closes — for an owned
//     in-process engine, Engine.Close drains the index locks, surfaces
//     maintenance errors, flushes dirty pages and audits buffer-pool pin
//     accounting.
//
// Shutdown is idempotent; concurrent and repeated calls return the first
// call's result.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.closeOnce.Do(func() {
		rt.draining.Store(true)
		var errs []error
		if rt.listener != nil {
			if err := rt.httpSrv.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("server: http shutdown: %w", err))
			}
			<-rt.serveDone
			if rt.serveErr != nil {
				errs = append(errs, fmt.Errorf("server: serve: %w", rt.serveErr))
			}
		}
		// Drain the handlers themselves (covers the embedded-handler case,
		// where no owned http.Server waits for them).  Requests arriving
		// during the wait only run the 503 fence path, so the one
		// zero-crossing signal suffices.  If ctx expires first, the close
		// proceeds anyway: stragglers then hit the backend's close fence
		// and return a clean 503, never a torn response.
		rt.inflightMu.Lock()
		var drained chan struct{}
		if rt.inflightN > 0 {
			drained = make(chan struct{})
			rt.inflightIdle = drained
		}
		rt.inflightMu.Unlock()
		if drained != nil {
			select {
			case <-drained:
			case <-ctx.Done():
				errs = append(errs, fmt.Errorf("server: handler drain: %w", ctx.Err()))
			}
		}
		close(rt.stop)
		rt.wg.Wait()
		for _, b := range rt.backends {
			if err := b.Close(); err != nil {
				errs = append(errs, fmt.Errorf("server: backend %s close: %w", b.Label(), err))
			}
		}
		rt.closeErr = errors.Join(errs...)
	})
	return rt.closeErr
}
