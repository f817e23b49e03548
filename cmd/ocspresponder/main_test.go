package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLeafOCSPURLMatchesBanner: the leaf's AIA names the same responder
// URL the banner prints, for a bare port and for host:port listen
// addresses alike.
func TestLeafOCSPURLMatchesBanner(t *testing.T) {
	for listen, want := range map[string]string{
		":8889":          "http://localhost:8889",
		"127.0.0.1:8889": "http://127.0.0.1:8889",
		"[::1]:8889":     "http://[::1]:8889",
	} {
		var out bytes.Buffer
		_, leaf, err := newCA(listen, &out)
		if err != nil {
			t.Fatal(err)
		}
		var endpoint string
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# OCSP endpoint: "); ok {
				endpoint, _, _ = strings.Cut(rest, "/  CRL: ")
			}
		}
		if endpoint != want {
			t.Errorf("-listen %s: banner endpoint %q, want %q", listen, endpoint, want)
		}
		if got := leaf.Certificate.OCSPServer; len(got) != 1 || got[0] != endpoint {
			t.Errorf("-listen %s: leaf OCSP URLs %q, banner endpoint %q", listen, got, endpoint)
		}
	}
}
