package ocsp

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// ContentTypeRequest and ContentTypeResponse are the media types registered
// for OCSP over HTTP (RFC 6960 Appendix A).
const (
	ContentTypeRequest  = "application/ocsp-request"
	ContentTypeResponse = "application/ocsp-response"
)

// EncodeGETPath returns the path suffix for an OCSP GET request: the
// base64-then-URL-escaped DER request appended to the responder URL
// (RFC 6960 Appendix A.1).
func EncodeGETPath(reqDER []byte) string {
	return url.PathEscape(base64.StdEncoding.EncodeToString(reqDER))
}

// DecodeGETPath inverts EncodeGETPath given the path portion after the
// responder prefix. Clients in the wild deviate from RFC 6960 Appendix
// A.1 in three tolerable ways — the base64url alphabet instead of the
// standard one, stripped '=' padding, and percent-escaping of '/', '+',
// and '=' — so the decoder accepts all of them: an RFC 5019 serving tier
// that rejected these would turn working clients into 4xx noise. Pass
// the still-escaped path (http.Request.URL.EscapedPath) when available,
// so a percent-escaped '/' is not confused with a path separator.
//
//lint:allow unused the reference decoder FuzzDecodeGETPath checks the serving tier's AppendDecodeGETPath against
func DecodeGETPath(path string) ([]byte, error) {
	unescaped, err := url.PathUnescape(strings.TrimPrefix(path, "/"))
	if err != nil {
		return nil, fmt.Errorf("ocsp: unescape GET path: %w", err)
	}
	normalized := strings.NewReplacer("-", "+", "_", "/").Replace(unescaped)
	normalized = strings.TrimRight(normalized, "=")
	der, err := base64.RawStdEncoding.DecodeString(normalized)
	if err != nil {
		return nil, fmt.Errorf("ocsp: decode GET path: %w", err)
	}
	return der, nil
}

// AppendDecodeGETPath is the allocation-free form of DecodeGETPath: it
// appends the decoded request DER to dst and returns the extended slice.
// It accepts exactly the inputs DecodeGETPath accepts and produces the
// same bytes (FuzzDecodeGETPath pins the equivalence); the difference is
// mechanical — percent-decoding, alphabet normalization, and padding
// stripping happen in one pass over a pooled scratch buffer instead of
// three intermediate strings, so a serving-tier GET miss costs no decode
// garbage.
func AppendDecodeGETPath(dst []byte, path string) ([]byte, error) {
	if len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	scratch := pkixutil.GetBytes()
	defer pkixutil.PutBytes(scratch)
	norm := *scratch
	for i := 0; i < len(path); {
		c := path[i]
		if c == '%' {
			if i+2 >= len(path) {
				return nil, fmt.Errorf("ocsp: unescape GET path: invalid URL escape %q", path[i:])
			}
			hi, ok1 := unhex(path[i+1])
			lo, ok2 := unhex(path[i+2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("ocsp: unescape GET path: invalid URL escape %q", path[i:i+3])
			}
			c = hi<<4 | lo
			i += 3
		} else {
			i++
		}
		// Normalize the base64url alphabet to the standard one; a '='
		// that survives the trailing trim below is rejected by the raw
		// decoder, matching DecodeGETPath.
		switch c {
		case '-':
			c = '+'
		case '_':
			c = '/'
		}
		norm = append(norm, c)
	}
	for len(norm) > 0 && norm[len(norm)-1] == '=' {
		norm = norm[:len(norm)-1]
	}
	*scratch = norm // keep the grown backing array pooled

	need := base64.RawStdEncoding.DecodedLen(len(norm))
	if free := cap(dst) - len(dst); free < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	n, err := base64.RawStdEncoding.Decode(dst[len(dst):len(dst)+need], norm)
	if err != nil {
		return nil, fmt.Errorf("ocsp: decode GET path: %w", err)
	}
	return dst[:len(dst)+n], nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// NewHTTPRequest builds the HTTP request carrying an OCSP request to
// responderURL. method is http.MethodPost (the default used by the paper's
// measurement client) or http.MethodGet.
func NewHTTPRequest(ctx context.Context, method, responderURL string, reqDER []byte) (*http.Request, error) {
	switch method {
	case http.MethodPost:
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, responderURL, bytes.NewReader(reqDER))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", ContentTypeRequest)
		return httpReq, nil
	case http.MethodGet:
		u := strings.TrimSuffix(responderURL, "/") + "/" + EncodeGETPath(reqDER)
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	default:
		return nil, fmt.Errorf("ocsp: unsupported HTTP method %q", method)
	}
}
