// Package netsim simulates the network path between the paper's six
// measurement vantage points and the OCSP responders: DNS resolution with
// per-region NXDOMAIN schedules, TCP reachability, HTTP error injection,
// TLS certificate failures, correlated backend outages (several responder
// hostnames CNAMEd to, or sharing an IP with, one backend — the mechanism
// behind the Comodo outage of April 25, 2018 that took 15 responders down
// at once), and a latency model.
//
// The hosts registered with a Network are real http.Handlers (the
// responders from internal/responder); netsim only decides whether and how
// a request from a given vantage at a given virtual time reaches them.
package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
)

// Vantage is a measurement client location.
type Vantage struct {
	// Name is the label used throughout results ("Oregon", "Seoul", ...).
	Name string
	// BaseRTT is the modelled round-trip latency floor from this
	// vantage to a generic responder.
	BaseRTT time.Duration
}

// PaperVantages are the six AWS locations of the paper's measurement
// deployment (§5.1), with rough relative RTT floors.
func PaperVantages() []Vantage {
	return []Vantage{
		{Name: "Oregon", BaseRTT: 20 * time.Millisecond},
		{Name: "Virginia", BaseRTT: 15 * time.Millisecond},
		{Name: "Sao-Paulo", BaseRTT: 90 * time.Millisecond},
		{Name: "Paris", BaseRTT: 40 * time.Millisecond},
		{Name: "Sydney", BaseRTT: 110 * time.Millisecond},
		{Name: "Seoul", BaseRTT: 70 * time.Millisecond},
	}
}

// FailureKind classifies injected network failures, mirroring the paper's
// taxonomy of persistent responder failures (§5.2): DNS lookup failures
// (NXDOMAIN), TCP connection failures, HTTP 4xx/5xx, and one responder
// whose HTTPS URL served an invalid certificate.
type FailureKind int

const (
	FailNone FailureKind = iota
	// FailDNS is an NXDOMAIN (or other resolution failure).
	FailDNS
	// FailTCP is a connect timeout / refusal.
	FailTCP
	// FailHTTP synthesizes an HTTP error status (rule.HTTPStatus).
	FailHTTP
	// FailTLS models an HTTPS responder URL served with an invalid
	// certificate.
	FailTLS
)

func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailDNS:
		return "dns"
	case FailTCP:
		return "tcp"
	case FailHTTP:
		return "http"
	case FailTLS:
		return "tls"
	}
	return fmt.Sprintf("failure(%d)", int(k))
}

// Error is a transport-level failure surfaced by the simulated network.
type Error struct {
	Kind    FailureKind
	Host    string
	Vantage string
}

func (e *Error) Error() string {
	return fmt.Sprintf("netsim: %s failure reaching %s from %s", e.Kind, e.Host, e.Vantage)
}

// Window is a time interval during which a rule applies. A zero From means
// "since forever"; a zero To means "until forever" — together they express
// both persistent failures and transient outages.
type Window struct {
	From, To time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	if !w.From.IsZero() && t.Before(w.From) {
		return false
	}
	if !w.To.IsZero() && !t.Before(w.To) {
		return false
	}
	return true
}

// Rule injects a failure for requests matching a host or backend, from a
// set of vantages, inside a set of windows.
type Rule struct {
	// Host matches a specific responder hostname (host[:port]); Backend
	// matches every host registered with that backend name. Exactly one
	// should be set.
	Host    string
	Backend string
	// Vantages restricts the rule to these vantage names; empty means
	// all vantages (a global outage).
	Vantages []string
	// Windows are when the rule fires; empty means always (persistent).
	Windows []Window
	// Kind is the injected failure; HTTPStatus is used when Kind ==
	// FailHTTP.
	Kind       FailureKind
	HTTPStatus int
}

//lint:allocfree
func (r *Rule) matches(host, backend, vantage string, at time.Time) bool {
	if r.Host != "" && r.Host != host {
		return false
	}
	if r.Backend != "" && r.Backend != backend {
		return false
	}
	if r.Host == "" && r.Backend == "" {
		return false
	}
	if len(r.Vantages) > 0 {
		ok := false
		for _, v := range r.Vantages {
			if v == vantage {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Windows) == 0 {
		return true
	}
	for _, w := range r.Windows {
		if w.Contains(at) {
			return true
		}
	}
	return false
}

type hostEntry struct {
	handler http.Handler
	backend string
}

// indexedRule is a rule with its installation sequence number, which
// orders rules across the host and backend indexes.
type indexedRule struct {
	seq  int
	rule *Rule
}

// Network is the simulated Internet: a host registry plus failure rules.
//
// Rules are indexed by the name they target: byHost holds every rule that
// names a host (including rules that also name a backend), byBackend every
// backend-only rule, each in installation order. An exchange visits only
// the rules under its host and its host's backend, so its cost does not
// grow with the size of the failure schedule.
type Network struct {
	mu        sync.RWMutex
	hosts     map[string]hostEntry
	byHost    map[string][]indexedRule
	byBackend map[string][]indexedRule
	nrules    int
}

// New returns an empty network.
func New() *Network {
	return &Network{
		hosts:     make(map[string]hostEntry),
		byHost:    make(map[string][]indexedRule),
		byBackend: make(map[string][]indexedRule),
	}
}

// RegisterHost attaches a handler to a hostname. backend groups hosts that
// share infrastructure: a rule targeting the backend hits all of them
// (modelling shared CNAMEs/IPs). backend may equal the host itself.
func (n *Network) RegisterHost(host, backend string, h http.Handler) {
	if backend == "" {
		backend = host
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = hostEntry{handler: h, backend: backend}
}

// AddRule installs a failure rule. When several rules match an exchange,
// the one installed first wins. The rule is indexed by its Host (or, for a
// backend-only rule, its Backend) at installation, so it must not be
// modified afterwards. A rule naming neither never matches and is dropped.
func (n *Network) AddRule(r *Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ir := indexedRule{seq: n.nrules, rule: r}
	n.nrules++
	switch {
	case r.Host != "":
		n.byHost[r.Host] = append(n.byHost[r.Host], ir)
	case r.Backend != "":
		n.byBackend[r.Backend] = append(n.byBackend[r.Backend], ir)
	}
}

// Hosts returns the registered hostnames, sorted.
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Backend returns the backend group of a host ("" if unknown).
func (n *Network) Backend(host string) string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[host].backend
}

// Result is the outcome of a successful (transport-level) exchange.
type Result struct {
	Status  int
	Body    []byte
	Headers http.Header
	Latency time.Duration
}

// Do performs one simulated HTTP exchange from vantage at virtual time at.
// Transport-level failures (DNS, TCP, TLS) return *Error; HTTP-level
// failures are reported via Result.Status. A canceled or expired request
// context returns its error before the exchange is simulated, mirroring a
// real transport.
func (n *Network) Do(vantage Vantage, at time.Time, req *http.Request) (*Result, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	host := req.URL.Host
	n.mu.RLock()
	entry, registered := n.hosts[host]
	// AddRule only appends, so these slices stay valid after unlocking.
	hostRules := n.byHost[host]
	var backendRules []indexedRule
	if entry.backend != "" {
		backendRules = n.byBackend[entry.backend]
	}
	n.mu.RUnlock()

	if r := firstMatch(hostRules, backendRules, host, entry.backend, vantage.Name, at); r != nil {
		switch r.Kind {
		case FailDNS, FailTCP, FailTLS:
			return nil, &Error{Kind: r.Kind, Host: host, Vantage: vantage.Name}
		case FailHTTP:
			status := r.HTTPStatus
			if status == 0 {
				status = http.StatusInternalServerError
			}
			return &Result{Status: status, Latency: n.latency(vantage, host, at)}, nil
		}
	}

	if !registered {
		// Unregistered hosts do not resolve — the fate of
		// ocsp.pki.wayport.net-style responders that simply vanished.
		return nil, &Error{Kind: FailDNS, Host: host, Vantage: vantage.Name}
	}

	rec := newRecorder()
	entry.handler.ServeHTTP(rec, req)
	return &Result{Status: rec.status, Body: rec.body.Bytes(), Headers: rec.header, Latency: n.latency(vantage, host, at)}, nil
}

// firstMatch returns the earliest-installed rule among a host's and its
// backend's rules that matches the exchange, or nil. Both lists are in
// installation order, so a merge by sequence number visits the candidates
// in the order a scan of every rule would.
//
//lint:allocfree
func firstMatch(hostRules, backendRules []indexedRule, host, backend, vantage string, at time.Time) *Rule {
	i, j := 0, 0
	for i < len(hostRules) || j < len(backendRules) {
		var next indexedRule
		if j == len(backendRules) || (i < len(hostRules) && hostRules[i].seq < backendRules[j].seq) {
			next = hostRules[i]
			i++
		} else {
			next = backendRules[j]
			j++
		}
		if next.rule.matches(host, backend, vantage, at) {
			return next.rule
		}
	}
	return nil
}

// DoSimple is a convenience for POST-style bodies without building an
// http.Request by hand.
func (n *Network) DoSimple(vantage Vantage, at time.Time, method, rawURL string, contentType string, body []byte) (*Result, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		return nil, fmt.Errorf("netsim: build request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return n.Do(vantage, at, req)
}

// latency derives a deterministic per-(vantage, host, hour) latency: the
// vantage RTT floor plus a stable pseudo-random jitter. Deterministic so
// repeated runs of a seeded world produce identical figures.
//
//lint:allocfree
func (n *Network) latency(v Vantage, host string, at time.Time) time.Duration {
	jitter := time.Duration(latencyHash(v.Name, host, at)%20) * time.Millisecond
	return v.BaseRTT + jitter
}

// latencyHash is FNV-1a over vantage + "|" + host + "|" + the RFC 3339
// form of at's hour. The pieces are fed in turn and the timestamp is
// formatted into a stack buffer, so no key string is built; the value
// equals the hash of the concatenated key.
//
//lint:allocfree
func latencyHash(vantage, host string, at time.Time) uint64 {
	var stamp [64]byte
	h := hashx.Add64(hashx.Sum64(vantage), "|")
	h = hashx.Add64(hashx.Add64(h, host), "|")
	return hashx.Add64(h, at.Truncate(time.Hour).AppendFormat(stamp[:0], time.RFC3339))
}

// recorder is a minimal in-memory http.ResponseWriter, avoiding a
// dependency on net/http/httptest in non-test code.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: make(http.Header)}
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
