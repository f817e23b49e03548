package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"
)

// refNanos is the calibration round trip at reference speed: about what it
// takes on the 2-vCPU VM the bounds were measured on while its host runs
// loopback traffic at full speed.
const refNanos = 25000

// refTrips is how many round trips one calibration sample times.
const refTrips = 100

// refBody stands in for an OCSP response: a fixed body of about that size.
var refBody = make([]byte, 300)

// refServer is the calibration kernel: a net/http server from the standard
// library alone, whose handler writes refBody, driven over loopback by a
// client set up as the load client is. No change to the repository can make
// its round trip faster or slower.
//
// It exists because the host's speed is not the repository's. The
// reference VM shares its machine with other tenants, and as their load
// comes and goes, loopback round trips, system calls and page faults slow
// by up to 1.7× for anything from a fraction of a second to the whole of a
// run, while pure computation barely slows. Every workload slows with the
// kernel alike, so a run samples it between its windows and set-ups and
// reports each time at reference speed: multiplied by refNanos over the
// adjacent samples' round trip, or for a rate divided by it.
type refServer struct {
	url    string
	client *http.Client
	hs     *http.Server
	served chan error
	// slows logs every sample's slowdown for the run's summary.
	slows []float64
}

func startRefServer() (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refServer{
		url:    "http://" + ln.Addr().String() + "/",
		client: newClient(),
		served: make(chan error, 1),
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(refBody) // a failed write shows as a failed round trip
		})},
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	// The first sample dials the connection; it is not a calibration.
	if _, err := r.sample(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	r.slows = nil
	return r, nil
}

// sample returns the median of refTrips round trips.
func (r *refServer) sample() (time.Duration, error) {
	var ds [refTrips]time.Duration
	for i := range ds {
		start := time.Now()
		resp, err := r.client.Get(r.url)
		if err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
	r.slows = append(r.slows, slowdownOf(ds[refTrips/2]))
	return ds[refTrips/2], nil
}

// slowdownOf returns how many times slower than reference speed a kernel
// sample of d ran.
func slowdownOf(d time.Duration) float64 { return float64(d) / refNanos }

// timeSetUp runs build from a settled heap and returns its time in seconds,
// at reference speed by a kernel sample just before it (raw when ref is
// nil).
func timeSetUp(ref *refServer, build func() error) (float64, error) {
	slow := 1.0
	if ref != nil {
		d, err := ref.sample()
		if err != nil {
			return 0, err
		}
		slow = slowdownOf(d)
	}
	settle()
	start := time.Now()
	if err := build(); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(start).Seconds() / slow, nil
}

func (r *refServer) String() string {
	return fmt.Sprintf("host at %.3f× reference time (median of %d calibrations)", median(r.slows), len(r.slows))
}

func (r *refServer) close() error {
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
