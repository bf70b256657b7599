package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"cvcp"
	"cvcp/internal/server"
)

// apiClient talks to one in-process cvcpd over HTTP.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &apiClient{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON response into v, failing on any
// status other than want.
func (c *apiClient) do(method, path string, body []byte, contentType string, want int, v any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if v != nil {
		return json.Unmarshal(data, v)
	}
	return nil
}

// stream is what a client observed on one job's SSE stream.
type stream struct {
	status      server.Status
	seen        time.Time         // when the terminal status event arrived
	shardLeased map[int]time.Time // first lease event per shard
	shardDone   map[int]time.Time // done (or failed) event per shard
	leases      map[int]int       // lease events per shard; >1 means reclaimed
}

// follow reads GET /v1/jobs/{id}/events until the terminal status event
// and returns what it saw.
func (c *apiClient) follow(id string) (*stream, error) {
	req, err := http.NewRequest("GET", c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	st := &stream{shardLeased: map[int]time.Time{}, shardDone: map[int]time.Time{}, leases: map[int]int{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("events of %s: %w", id, err)
		}
		switch ev.Type {
		case "shard":
			switch ev.ShardStatus {
			case "leased":
				if _, ok := st.shardLeased[ev.Shard]; !ok {
					st.shardLeased[ev.Shard] = now
				}
				st.leases[ev.Shard]++
			case "done", "failed":
				st.shardDone[ev.Shard] = now
			}
		case "status":
			if ev.Status.Terminal() {
				st.status, st.seen = ev.Status, now
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("events of %s: stream ended before a terminal status", id)
}

// checkView compares a finished job's result with a library selection:
// the winner, every fold-score bit of the winner's scores and the final
// labels. It returns "" when they match.
func checkView(v server.JobView, want *cvcp.Result) string {
	if v.Status != server.StatusDone {
		return fmt.Sprintf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	r := v.Result
	w := want.Winner
	if r == nil {
		return fmt.Sprintf("job %s: no result", v.ID)
	}
	if r.Algorithm != w.Algorithm || r.BestParam != w.Best.Param {
		return fmt.Sprintf("job %s: winner %s/%d, want %s/%d", v.ID, r.Algorithm, r.BestParam, w.Algorithm, w.Best.Param)
	}
	scores := make([]cvcp.ParamScore, len(r.Scores))
	for i, sv := range r.Scores {
		scores[i] = cvcp.ParamScore{Param: sv.Param, Score: sv.Score, FoldScores: sv.FoldScores}
	}
	if msg := sameScores(w.Scores, scores); msg != "" {
		return fmt.Sprintf("job %s: %s", v.ID, msg)
	}
	if !slices.Equal(r.FinalLabels, w.FinalLabels) {
		return fmt.Sprintf("job %s: final labels differ", v.ID)
	}
	return ""
}
