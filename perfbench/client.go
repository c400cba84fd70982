package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// httpClient is one load-generating client: a single keep-alive
// connection per host, like one user's session.
type httpClient struct {
	c *http.Client
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// postJSON sends body to url and decodes a 200 reply into out; any other
// status is an error naming it.
func (h *httpClient) postJSON(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(msg))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// verify sends one verification to base; minVersion > 0 adds the
// read-your-writes token.
func (h *httpClient) verify(base string, r request, minVersion uint64) (server.VerifyResponse, error) {
	path, body := r.httpCall()
	url := base + path
	if minVersion > 0 {
		url += "?min_version=" + strconv.FormatUint(minVersion, 10)
	}
	var resp server.VerifyResponse
	err := h.postJSON(url, body, &resp)
	return resp, err
}

// ingest sends one batch to the leader and returns the version it acked;
// a batch with any item not ingested is an error.
func (h *httpClient) ingest(base string, items []server.IngestBatchItem) (uint64, error) {
	var resp server.IngestBatchResponse
	if err := h.postJSON(base+"/v1/ingest/batch", server.IngestBatchRequest{Items: items}, &resp); err != nil {
		return 0, err
	}
	if resp.Ingested != len(items) {
		return 0, fmt.Errorf("batch: %d of %d items ingested", resp.Ingested, len(items))
	}
	return resp.Version, nil
}

// scrape reads GET /metrics and sums every sample by metric name; samples
// of verifai_http_requests_total are also summed by status class under
// "<name>|429" and "<name>|5xx".
func (h *httpClient) scrape(base string) (map[string]float64, error) {
	resp, err := h.c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out[name] += v
		if name == "verifai_http_requests_total" {
			switch {
			case strings.Contains(labels, `status="429"`):
				out[name+"|429"] += v
			case strings.Contains(labels, `status="5`):
				out[name+"|5xx"] += v
			}
		}
	}
	return out, sc.Err()
}
