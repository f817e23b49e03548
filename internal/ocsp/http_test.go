package ocsp

import (
	"context"
	"crypto"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// echoResponder is a minimal HTTP handler that parses requests from both
// transport encodings and answers Good, for exercising the client side.
func echoResponder(t testing.TB, p *testPKI) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reqDER []byte
		switch r.Method {
		case http.MethodPost:
			if ct := r.Header.Get("Content-Type"); ct != ContentTypeRequest {
				http.Error(w, "bad content type "+ct, http.StatusUnsupportedMediaType)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "read", http.StatusBadRequest)
				return
			}
			reqDER = body
		case http.MethodGet:
			der, err := DecodeGETPath(r.URL.Path)
			if err != nil {
				http.Error(w, "decode", http.StatusBadRequest)
				return
			}
			reqDER = der
		}
		req, err := ParseRequest(reqDER)
		if err != nil {
			http.Error(w, "parse", http.StatusBadRequest)
			return
		}
		single := SingleResponse{
			CertID:     req.CertIDs[0],
			Status:     Good,
			ThisUpdate: testTime,
			NextUpdate: testTime.Add(time.Hour),
			Reason:     pkixutil.ReasonAbsent,
		}
		der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, req.Nonce)
		if err != nil {
			http.Error(w, "create", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentTypeResponse)
		w.Write(der)
	})
}

// exchange sends reqDER to url over client in NewHTTPRequest's framing for
// method and parses the 200 answer.
func exchange(t *testing.T, client *http.Client, method, url string, reqDER []byte) *Response {
	t.Helper()
	httpReq, err := NewHTTPRequest(context.Background(), method, url, reqDER)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	httpResp, err := client.Do(httpReq)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", method, httpResp.StatusCode)
	}
	resp, err := ParseResponse(body)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return resp
}

// TestFetchPOSTAndGET sends NewHTTPRequest's POST and GET framings over a
// real listener: the responder decodes each and answers the requested
// serial.
func TestFetchPOSTAndGET(t *testing.T) {
	p := newTestPKI(t)
	srv := httptest.NewServer(echoResponder(t, p))
	defer srv.Close()
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		resp := exchange(t, srv.Client(), method, srv.URL, der)
		if resp.Find(req.CertIDs[0]) == nil {
			t.Errorf("%s: response misses the requested serial", method)
		}
	}
}

// TestGetConvenience checks what a client of one OCSP exchange over HTTP
// relies on: in either framing the nonce comes back and the response
// verifies against the issuer.
func TestGetConvenience(t *testing.T) {
	p := newTestPKI(t)
	srv := httptest.NewServer(echoResponder(t, p))
	defer srv.Close()
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	req.Nonce = []byte("nonce-for-http")
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		resp := exchange(t, srv.Client(), method, srv.URL, der)
		if string(resp.Nonce) != "nonce-for-http" {
			t.Errorf("%s: nonce not echoed over HTTP: %q", method, resp.Nonce)
		}
		if err := resp.CheckSignatureFrom(p.ca.Certificate); err != nil {
			t.Errorf("%s: signature over HTTP: %v", method, err)
		}
	}
}

// decodeGETPathCorpus is the lenient-decoder acceptance corpus: every
// base64 dialect clients emit (standard and url-safe alphabets, with and
// without '=' padding, with '/', '+', '=' percent-escaped), DER chosen so
// the base64 hits '+', '/', and padding: 0xfb 0xef 0xbe → "++++",
// 0xff 0xef → "/+8=". It doubles as the FuzzDecodeGETPath seed corpus
// pinning DecodeGETPath and AppendDecodeGETPath to each other.
var decodeGETPathCorpus = []struct {
	name string
	path string
	want []byte // nil: the path must be rejected
}{
	{"canonical", EncodeGETPath([]byte{0xfb, 0xef, 0xbe}), []byte{0xfb, 0xef, 0xbe}},
	{"std-plain", "++++", []byte{0xfb, 0xef, 0xbe}},
	{"urlsafe", "----", []byte{0xfb, 0xef, 0xbe}},
	{"std-padded", "++8=", []byte{0xfb, 0xef}},
	{"stripped-padding", "++8", []byte{0xfb, 0xef}},
	// url-safe '_' normalizes to '/' mid-decode without being
	// mistaken for a path separator.
	{"urlsafe-stripped", "_-8", []byte{0xff, 0xef}},
	// A percent-escaped '/' survives because escapes are resolved
	// after path splitting, never before.
	{"escaped-slash-plus", "%2F%2B8%3D", []byte{0xff, 0xef}},
	{"leading-path-slash", "/++8=", []byte{0xfb, 0xef}},
	{"bad-alphabet", "@@@@", nil},
	{"bad-escape", "%zz", nil},
	{"bad-length", "a", nil},
	{"truncated-escape", "++8%3", nil},
	{"interior-padding", "+=+8", nil},
}

func TestDecodeGETPathVariants(t *testing.T) {
	for _, tc := range decodeGETPathCorpus {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeGETPath(tc.path)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("DecodeGETPath(%q) succeeded, want error", tc.path)
				}
				return
			}
			if err != nil {
				t.Fatalf("DecodeGETPath(%q): %v", tc.path, err)
			}
			if string(got) != string(tc.want) {
				t.Errorf("DecodeGETPath(%q) = %x, want %x", tc.path, got, tc.want)
			}
		})
	}
}

// TestAppendDecodeGETPathMatchesDecode pins the zero-allocation decoder
// to the reference one over the whole corpus, including append-to-prefix
// and reused-capacity calling patterns.
func TestAppendDecodeGETPathMatchesDecode(t *testing.T) {
	scratch := make([]byte, 0, 64)
	for _, tc := range decodeGETPathCorpus {
		want, wantErr := DecodeGETPath(tc.path)
		got, gotErr := AppendDecodeGETPath(nil, tc.path)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: DecodeGETPath=%v AppendDecodeGETPath=%v", tc.name, wantErr, gotErr)
		}
		if wantErr == nil && string(got) != string(want) {
			t.Fatalf("%s: AppendDecodeGETPath = %x, want %x", tc.name, got, want)
		}

		prefix := []byte("pfx")
		appended, err := AppendDecodeGETPath(prefix, tc.path)
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("%s: append-form error mismatch: %v vs %v", tc.name, wantErr, err)
		}
		if err == nil && string(appended) != "pfx"+string(want) {
			t.Fatalf("%s: append form = %q, want %q", tc.name, appended, "pfx"+string(want))
		}

		reused, err := AppendDecodeGETPath(scratch[:0], tc.path)
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("%s: reused-scratch error mismatch: %v vs %v", tc.name, wantErr, err)
		}
		if err == nil {
			if string(reused) != string(want) {
				t.Fatalf("%s: reused scratch = %x, want %x", tc.name, reused, want)
			}
			if cap(reused) > cap(scratch) {
				scratch = reused[:0]
			}
		}
	}
}

func TestNewHTTPRequestValidation(t *testing.T) {
	if _, err := NewHTTPRequest(context.Background(), http.MethodPut, "http://x.test", []byte{1}); err == nil {
		t.Error("unsupported method must fail")
	}
	req, err := NewHTTPRequest(context.Background(), http.MethodGet, "http://x.test/ocsp/", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The GET URL embeds the base64 request after the base path.
	if got := req.URL.Path; got == "/ocsp/" || len(got) <= len("/ocsp/") {
		t.Errorf("GET path missing encoded request: %q", got)
	}
}
