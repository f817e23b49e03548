package webserver

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// responderForLeaf builds a live responder for the fixture's leaf.
func responderForLeaf(t *testing.T, fx *engineFixture) *responder.Responder {
	t.Helper()
	return responder.New("ocsp.http.test", fx.leaf.Issuer, responderDB(fx.leaf), fx.clk, responder.Profile{})
}

// responderDB is a status database that knows only leaf, as good.
func responderDB(leaf *pki.Leaf) *responder.DB {
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	return db
}

// httpFetcherFor serves resp over a real HTTP listener and returns a
// Fetcher pointing at it.
func httpFetcherFor(t *testing.T, leaf *pki.Leaf, resp *responder.Responder) (Fetcher, func()) {
	t.Helper()
	srv := httptest.NewServer(ocspserver.NewHandler(resp))
	// Point the fetcher at the live listener rather than the AIA URL.
	fetch, err := HTTPFetcherURL(&http.Client{}, leaf, srv.URL)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return fetch, srv.Close
}
