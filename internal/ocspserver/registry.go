package ocspserver

import (
	"crypto"
	"fmt"
	"sort"
	"sync"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

// Registry routes requests to per-CA tenants. A CertID names its issuer
// by hashed subject name and hashed public key; the registry indexes
// every tenant under both hashes for both algorithms clients use (SHA-1
// per RFC 5019, SHA-256 from modern stacks), so routing is a single map
// lookup once the request is parsed.
type Registry struct {
	mu sync.RWMutex
	// byKey and byName map raw issuer hashes (as string keys, prefixed
	// with the hash algorithm) to the owning tenant. Key hashes are
	// authoritative; name hashes are a fallback for requests whose key
	// hash matches nothing (they cannot disagree for a registered CA).
	byKey  map[string]*responder.Responder
	byName map[string]*responder.Responder
	hosts  map[string]*responder.Responder
}

// NewRegistry returns an empty tenant registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*responder.Responder),
		byName: make(map[string]*responder.Responder),
		hosts:  make(map[string]*responder.Responder),
	}
}

var registryHashes = []crypto.Hash{crypto.SHA1, crypto.SHA256}

// Register adds a tenant, indexing it under its CA's issuer hashes. A
// distinct tenant for an issuer key that is already registered is
// rejected, as is one sharing a host name: a key hash routes to one
// tenant for the registry's lifetime, which is what lets the handler's
// memos keep key-hash routes without invalidation. A name hash is a
// fallback the last tenant registered under it takes over, so routes
// found through one are never memoized.
func (g *Registry) Register(r *responder.Responder) error {
	keys := make([]string, 0, len(registryHashes))
	names := make([]string, 0, len(registryHashes))
	for _, h := range registryHashes {
		key, err := pkixutil.IssuerKeyHash(r.CA.Certificate, h)
		if err != nil {
			return fmt.Errorf("ocspserver: hashing issuer key for %s: %w", r.Host, err)
		}
		name, err := pkixutil.IssuerNameHash(r.CA.Certificate, h)
		if err != nil {
			return fmt.Errorf("ocspserver: hashing issuer name for %s: %w", r.Host, err)
		}
		keys = append(keys, hashKey(h, key))
		names = append(names, hashKey(h, name))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.hosts[r.Host]; ok && prev != r {
		return fmt.Errorf("ocspserver: tenant host %s already registered", r.Host)
	}
	for _, key := range keys {
		if prev, ok := g.byKey[key]; ok && prev != r {
			return fmt.Errorf("ocspserver: issuer of %s already served by tenant %s", r.Host, prev.Host)
		}
	}
	for i := range keys {
		g.byKey[keys[i]] = r
		g.byName[names[i]] = r
	}
	g.hosts[r.Host] = r
	return nil
}

// hashKey builds the map key for one issuer hash under one algorithm.
func hashKey(h crypto.Hash, sum []byte) string {
	return string(rune(h)) + string(sum)
}

// RouteRequest resolves the tenant serving a parsed request, nil when no
// registered CA matches. Multi-serial requests are routed by their first
// CertID: a request spanning CAs is not answerable by any single tenant,
// and the routed tenant's own issuer check marks foreign serials
// unknown, which is what RFC 6960 prescribes.
func (g *Registry) RouteRequest(req *ocsp.Request) *responder.Responder {
	r, _ := g.route(req)
	return r
}

// route is RouteRequest that also reports whether the issuer key hash
// decided the route. Only such a route is final: a tenant registered
// later may own the key hash behind a name-hash fallback.
func (g *Registry) route(req *ocsp.Request) (r *responder.Responder, final bool) {
	if len(req.CertIDs) == 0 {
		return nil, false
	}
	id := req.CertIDs[0]
	g.mu.RLock()
	defer g.mu.RUnlock()
	if r, ok := g.byKey[hashKey(id.HashAlgorithm, id.IssuerKeyHash)]; ok {
		return r, true
	}
	return g.byName[hashKey(id.HashAlgorithm, id.IssuerNameHash)], false
}

// Responders returns the registered tenants sorted by host, for
// deterministic iteration (stats scrapes, debug listings).
func (g *Registry) Responders() []*responder.Responder {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hosts := make([]string, 0, len(g.hosts))
	for h := range g.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	out := make([]*responder.Responder, len(hosts))
	for i, h := range hosts {
		out[i] = g.hosts[h]
	}
	return out
}

// Len returns the number of registered tenants.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.hosts)
}

// The route memo caches (request hash → tenant) so the multi-tenant hot
// path skips re-parsing byte-identical requests — the same observation
// the responder's signed-response cache exploits, applied one layer up.
// The request's FNV-64 is both the memo.Table hash and its key, and
// entries are confirmed against the stored request bytes, so an FNV
// collision costs a re-parse, never a mis-route. Only final routes, those
// an issuer key hash decided, are memoized; Register never changes them,
// so entries never need invalidation. Shards are bounded by half-eviction
// regardless.

// routeShardBudget bounds each of the memo's 64 shards, 4,096 entries in
// all.
const routeShardBudget = 64

type routeEntry struct {
	reqDER []byte
	r      *responder.Responder
}
