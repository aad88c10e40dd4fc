package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// listener serves a handler on a loopback port of its own; this is what
// the program's Start methods do, with the benchmark owning the wrapper.
type listener struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go l.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx) //nolint:errcheck // teardown
}

// newClient returns the HTTP client of a set of closed-loop callers, with
// one pooled connection per caller.
func newClient(callers int) *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConns: callers, MaxIdleConnsPerHost: callers, DisableCompression: true}}
}

var requestSeq atomic.Int64

// post sends one JSON request carrying a fresh request ID, decodes a 200
// response into out, and returns the round-trip time and the ID.
func post(c *http.Client, url, tenant string, body, out any) (time.Duration, string, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return 0, "", err
	}
	id := "pb-" + strconv.FormatInt(requestSeq.Add(1), 10)
	req.Header.Set("X-Bao-Request-Id", id)
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Bao-Tenant", tenant)
	}
	t := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, id, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t)
	if err != nil {
		return rtt, id, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, id, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return rtt, id, json.Unmarshal(data, out)
}

// status reads /v1/status (through the router when tenant is set).
func status(c *http.Client, base, tenant string) (trainCount, segments int, err error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/status", nil)
	if err != nil {
		return 0, 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Bao-Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d from %s/v1/status", resp.StatusCode, base)
	}
	var st struct {
		TrainCount int `json:"train_count"`
		Segments   int `json:"explog_segments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return st.TrainCount, st.Segments, nil
}

// closedLoop runs callers goroutines until the deadline, each sending its
// next request only after the previous one returned. call gets the
// caller index and returns false to stop early.
func closedLoop(callers int, d time.Duration, call func(caller int) bool) time.Duration {
	deadline := time.Now().Add(d)
	start := time.Now()
	done := make(chan struct{}, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) && call(c) {
			}
		}(c)
	}
	for c := 0; c < callers; c++ {
		<-done
	}
	return time.Since(start)
}
