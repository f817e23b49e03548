package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/loadgen"
)

// TestCheckRunFailsOn4xx drives a real open-loop run at a loopback server
// that answers GETs 404 and POSTs 200: most requests fail with a 4xx, and
// some complete. The -check predicate must fail the run, as it does on a
// 5xx.
func TestCheckRunFailsOn4xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		if req.Method == http.MethodGet {
			http.NotFound(w, req)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Rate:        200,
		Duration:    500 * time.Millisecond,
		GETFraction: 0.9,
		Seed:        1,
	}, []loadgen.Target{{URL: srv.URL, ReqDER: []byte{0x30, 0x00}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.HTTPErrors == 0 || res.Status5xx != 0 || res.TransportErrors != 0 {
		t.Fatalf("want completions and 4xx only: completed=%d http=%d 5xx=%d transport=%d",
			res.Completed, res.HTTPErrors, res.Status5xx, res.TransportErrors)
	}
	if err := checkRun(res); err == nil {
		t.Fatalf("check passed a run with %d 4xx responses of %d", res.HTTPErrors, res.Scheduled)
	}
}

func TestCheckRunVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  loadgen.Result
		pass bool
	}{
		{"clean", loadgen.Result{Scheduled: 10, Completed: 10}, true},
		{"nothing completed", loadgen.Result{Scheduled: 10}, false},
		{"4xx", loadgen.Result{Scheduled: 10, Completed: 9, HTTPErrors: 1}, false},
		{"5xx", loadgen.Result{Scheduled: 10, Completed: 9, HTTPErrors: 1, Status5xx: 1}, false},
		{"transport", loadgen.Result{Scheduled: 10, Completed: 9, TransportErrors: 1}, false},
	} {
		if err := checkRun(&tc.res); (err == nil) != tc.pass {
			t.Errorf("%s: checkRun = %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
}
