package main

import (
	"bytes"
	"hash/crc32"
	"net/http"
	"time"
)

// client is one keep-alive HTTP connection to the served rig; a session
// opens at most two (the frame client and, on live, the SSE subscriber).
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	buf  bytes.Buffer // body of the last response; reused
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get returns the response body, valid until the next request.
func (c *client) get(path string) ([]byte, int, error) {
	return c.do(http.MethodGet, path, nil)
}

func (c *client) do(method, path string, payload []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return c.buf.Bytes(), resp.StatusCode, err
}

// recorder keeps the traced run's spans in memory until the run writes
// them out.
type recorder struct {
	epoch time.Time
	spans []span
}

// span is one timed call into a layer: metric names the per-layer metric
// it feeds, start and end are offsets from the recorder's epoch.
type span struct {
	layer, metric string
	start, end    time.Duration
}

// start opens a span and returns the function that closes it and
// reports its duration.
func (r *recorder) start(layer, metric string) func() time.Duration {
	s := time.Since(r.epoch)
	return func() time.Duration {
		e := time.Since(r.epoch)
		r.spans = append(r.spans, span{layer, metric, s, e})
		return e - s
	}
}

// digest identifies a response body: its CRC-32C and its length. Bodies
// are compared across runs and against reference replays by digest.
func digest(body []byte) uint64 {
	return uint64(len(body))<<32 | uint64(crc32.Checksum(body, castagnoli))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)
