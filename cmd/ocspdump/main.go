// Command ocspdump decodes and pretty-prints DER OCSP requests and
// responses (files or stdin), in the spirit of `openssl ocsp -resp_text` —
// for inspecting what a responder actually returned. Base64 input (the GET
// transport encoding) is also accepted with -b64.
//
// Usage:
//
//	ocspdump [-req] [-b64] [file]     # default: response from stdin
//	ocspdump -demo                    # decode a freshly generated example
package main

import (
	"context"
	"crypto"
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

func main() {
	isReq := flag.Bool("req", false, "decode an OCSP request instead of a response")
	b64 := flag.Bool("b64", false, "input is base64 (the GET transport encoding)")
	demo := flag.Bool("demo", false, "generate and decode an example request + revoked response")
	flag.Parse()

	if *demo {
		runDemo()
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fail("read: %v", err)
	}
	if *b64 {
		decoded, err := base64.StdEncoding.DecodeString(strings.TrimSpace(string(data)))
		if err != nil {
			fail("base64: %v", err)
		}
		data = decoded
	}

	if *isReq {
		req, err := ocsp.ParseRequest(data)
		if err != nil {
			fail("parse request: %v", err)
		}
		fmt.Print(ocsp.FormatRequest(req))
		return
	}
	resp, err := ocsp.ParseResponse(data)
	if err != nil {
		fail("parse response: %v", err)
	}
	fmt.Print(ocsp.FormatResponse(resp))
}

func runDemo() {
	ca, err := pki.NewRootCA(pki.Config{Name: "ocspdump demo CA", NotBefore: time.Now().Add(-time.Hour)})
	if err != nil {
		fail("%v", err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:  []string{"demo.example"},
		NotBefore: time.Now().Add(-time.Hour),
		NotAfter:  time.Now().AddDate(0, 1, 0),
	})
	if err != nil {
		fail("%v", err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	db.Revoke(leaf.Certificate.SerialNumber, time.Now().Add(-10*time.Minute), pkixutil.ReasonKeyCompromise)
	r := responder.New("demo", ca, db, clock.Real{}, responder.Profile{})

	req, err := ocsp.NewRequest(leaf.Certificate, ca.Certificate, crypto.SHA1)
	if err != nil {
		fail("%v", err)
	}
	req.Nonce = []byte{0xde, 0xad, 0xbe, 0xef}
	reqDER, err := req.Marshal()
	if err != nil {
		fail("%v", err)
	}
	fmt.Print(ocsp.FormatRequest(req))
	fmt.Println()
	res, err := r.Respond(context.Background(), reqDER)
	if err != nil {
		fail("%v", err)
	}
	resp, err := ocsp.ParseResponse(res.DER)
	if err != nil {
		fail("%v", err)
	}
	fmt.Print(ocsp.FormatResponse(resp))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocspdump: "+format+"\n", args...)
	os.Exit(1)
}
