package webserver

import (
	"context"
	"crypto"
	"errors"
	"fmt"
	"net/http"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// NewFetcher builds the Fetcher a stapling server uses: each fetch POSTs
// leaf's OCSP request to the responder its AIA names, over t, from
// vantage at clk's current time. Over a netsim.Network the world's
// outage rules hit the server's refreshes as they hit the scanner's
// probes; over a scanner.RealTransport the fetch crosses real sockets.
//
// A transport error is returned as is and a status other than 200 is an
// error; the body is returned as is, for the engine's policy to judge.
func NewFetcher(t scanner.Transport, vantage netsim.Vantage, clk clock.Clock, leaf *pki.Leaf) (Fetcher, error) {
	url := pki.OCSPURL(leaf.Certificate)
	if url == "" {
		return nil, errors.New("webserver: leaf has no OCSP URL")
	}
	req, err := ocsp.NewRequest(leaf.Certificate, leaf.Issuer.Certificate, crypto.SHA1)
	if err != nil {
		return nil, err
	}
	der, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	httpReq, err := ocsp.NewHTTPRequest(context.Background(), http.MethodPost, url, der)
	if err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		// The Transport contract: every fetch sends its own shallow copy
		// of the request, with a fresh body over the same DER.
		body, err := httpReq.GetBody()
		if err != nil {
			return nil, err
		}
		r := httpReq.WithContext(context.Background())
		r.Body = body
		res, err := t.Do(vantage, clk.Now(), r)
		if err != nil {
			return nil, err
		}
		if res.Status != http.StatusOK {
			return nil, fmt.Errorf("webserver: responder HTTP %d", res.Status)
		}
		return res.Body, nil
	}, nil
}
