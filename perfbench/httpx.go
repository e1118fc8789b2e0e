package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"parsample/internal/server"
)

// httpTarget is a loopback HTTP server the benchmark owns.
type httpTarget struct {
	srv  *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &httpTarget{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { t.done <- t.srv.Serve(ln) }()
	return t, nil
}

// close shuts the server down and waits for its serve loop to return.
func (t *httpTarget) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		t.srv.Close()
	}
	<-t.done
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is one response as the client saw it.
type reply struct {
	status   int
	body     []byte
	cache    string
	estimate float64
	actual   float64
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url string, body []byte, client string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(server.ClientHeader, client)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, body: b, cache: resp.Header.Get(server.CacheHeader)}
	r.estimate, _ = strconv.ParseFloat(resp.Header.Get(server.CostEstimateHeader), 64)
	r.actual, _ = strconv.ParseFloat(resp.Header.Get(server.CostActualHeader), 64)
	if r.status != http.StatusOK {
		return r, fmt.Errorf("status %d: %.200s", r.status, b)
	}
	return r, nil
}

// errMismatch is a response that differs from the reference.
var errMismatch = errors.New("response differs from the reference")

// serverSamples records the server-side view of each untraced request.
func serverSamples(ls *layerSamples, r reply, latency time.Duration) {
	ls.add("server.overhead_ms", ms(latency.Seconds())-r.actual)
	for _, k := range []string{"hit", "disk", "miss"} {
		v := 0.0
		if r.cache == k {
			v = 1
		}
		ls.add("server."+k+"_share", v)
	}
	if r.actual > 0 && r.estimate > 0 {
		ls.add("api.cost_ratio_p50", r.actual/r.estimate)
	}
}

// serverShares turns the per-request cache samples into shares.
func serverShares(vals map[string]float64, ls *layerSamples) {
	n := float64(ls.count("server.hit_share"))
	for _, k := range []string{"hit", "disk", "miss"} {
		if n > 0 {
			vals["server."+k+"_share"] = ls.sum("server."+k+"_share") / n
		}
	}
}
