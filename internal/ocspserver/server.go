package ocspserver

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Server binds a Handler (plus optional sidecar routes) to a real
// socket. It is a thin shell over net/http with three serving-tier
// choices baked in:
//
//   - Dispatch is a custom root handler, not http.ServeMux: the mux
//     cleans paths, and an RFC 5019 GET request whose base64 contains
//     "//" would be 301-redirected into a different (broken) request
//     before the handler ever saw it.
//   - Cleartext HTTP/2 (h2c) is enabled alongside HTTP/1.1, so
//     keep-alive clients and multiplexing load generators exercise the
//     same connection reuse real CDN-fronted responders see.
//   - Shutdown is graceful: in-flight responses complete, which the
//     epoch-rollover-under-load test relies on.
type Server struct {
	handler *Handler
	// routes are exact-path sidecars (e.g. "/ca.crl", "/debug/vars")
	// consulted before OCSP dispatch. OCSP owns every other path because
	// GET requests encode their payload in the path itself.
	routes map[string]http.Handler

	srv *http.Server
	ln  net.Listener
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithRoute mounts a sidecar handler at an exact path (no patterns).
// OCSP requests whose base64 happens to collide with a mounted path are
// not a concern: base64 of DER never spells "/ca.crl".
func WithRoute(path string, handler http.Handler) ServerOption {
	return func(s *Server) { s.routes[path] = handler }
}

// NewServer wraps h in a socket-facing server.
func NewServer(h *Handler, opts ...ServerOption) *Server {
	s := &Server{
		handler: h,
		routes:  make(map[string]http.Handler),
	}
	s.srv = &http.Server{
		Handler:        s,
		ReadTimeout:    30 * time.Second, // slowloris hardening
		WriteTimeout:   30 * time.Second,
		IdleTimeout:    120 * time.Second,
		MaxHeaderBytes: maxGETPathBytes + (8 << 10),
	}
	// HTTP/1.1 plus cleartext HTTP/2: OCSP responders sit behind plain
	// HTTP (the AIA URL is http://), so h2 here means h2c.
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	s.srv.Protocols = protocols
	for _, o := range opts {
		o(s)
	}
	return s
}

// ServeHTTP dispatches: exact-path sidecars first, then OCSP.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if h, ok := s.routes[req.URL.Path]; ok {
		h.ServeHTTP(w, req)
		return
	}
	s.handler.ServeHTTP(w, req)
}

// Start binds addr (":0" picks an ephemeral port) and serves in a
// background goroutine. The bound address is available from Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.srv.Serve(ln) //lint:allow errcheck-hot Serve returns ErrServerClosed on Shutdown; real errors surface as connection failures in callers
	return nil
}

// Addr returns the bound listener address, nil before Start.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// URL returns the http:// base URL of the bound listener, "" before
// Start.
func (s *Server) URL() string {
	a := s.Addr()
	if a == nil {
		return ""
	}
	return "http://" + a.String()
}

// Shutdown gracefully drains in-flight requests, honoring ctx's
// deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}
