package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// pollInterval is the one fixed interval at which clients re-read a job;
// GET /jobs/{id} has no long-poll.
const pollInterval = 2 * time.Millisecond

// The wire types below decode only the fields the benchmark checks.

type jobRequest struct {
	DatasetID string `json:"dataset_id,omitempty"`
	DatasetA  string `json:"dataset_a,omitempty"`
	DatasetB  string `json:"dataset_b,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

type jobReport struct {
	Similarity   float64 `json:"similarity"`
	Intersecting int     `json:"intersecting"`
	Candidates   int     `json:"candidates"`
}

type jobResponse struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Report *jobReport `json:"report"`
}

type datasetResponse struct {
	ID           string `json:"id"`
	Tiles        int    `json:"tiles"`
	Polygons     int64  `json:"polygons"`
	SegmentBytes int64  `json:"segment_bytes"`
}

type tilePayload struct {
	RawA []byte `json:"raw_a"`
	RawB []byte `json:"raw_b"`
}

type matrixRequest struct {
	Datasets []string `json:"datasets"`
	TopK     int      `json:"top_k,omitempty"`
}

type matrixCell struct {
	State      string   `json:"state"`
	Error      string   `json:"error"`
	Similarity float64  `json:"similarity"`
	Intersect  int      `json:"intersecting"`
	Candidates int      `json:"candidates"`
	Bound      *float64 `json:"bound"`
}

type matrixStatus struct {
	ID         string         `json:"id"`
	State      string         `json:"state"`
	Version    int64          `json:"version"`
	Cells      [][]matrixCell `json:"cells"`
	ExactCells int            `json:"exact_cells"`
}

// putDataset uploads d and returns the stored dataset's manifest summary.
func (c *client) putDataset(ctx context.Context, rec *recorder, op int, name string, body []byte) (datasetResponse, error) {
	var resp datasetResponse
	err := c.call(ctx, rec, "server.put_dataset", op, http.MethodPut, "/datasets?name="+name, body, &resp, http.StatusOK)
	return resp, err
}

// runJob submits a job and polls it every pollInterval until it is
// terminal, returning the finished report.
func (c *client) runJob(ctx context.Context, rec *recorder, op int, req jobRequest) (jobReport, error) {
	body, err := jsonBody(req)
	if err != nil {
		return jobReport{}, err
	}
	var jr jobResponse
	if err := c.call(ctx, rec, "server.submit", op, http.MethodPost, "/jobs", body, &jr,
		http.StatusAccepted, http.StatusOK); err != nil {
		return jobReport{}, err
	}
	for jr.State == "queued" || jr.State == "running" {
		select {
		case <-ctx.Done():
			return jobReport{}, ctx.Err()
		case <-time.After(pollInterval):
		}
		var next jobResponse // a fresh value: decoding must not inherit fields
		if err := c.call(ctx, rec, "server.poll", op, http.MethodGet, "/jobs/"+jr.ID, nil, &next, http.StatusOK); err != nil {
			return jobReport{}, err
		}
		jr = next
	}
	if jr.State != "done" || jr.Report == nil {
		return jobReport{}, fmt.Errorf("job %s ended %s: %s", jr.ID, jr.State, jr.Error)
	}
	return *jr.Report, nil
}

// runMatrix starts a matrix run and long-polls it until it is terminal.
func (c *client) runMatrix(ctx context.Context, rec *recorder, op int, req matrixRequest) (matrixStatus, error) {
	body, err := jsonBody(req)
	if err != nil {
		return matrixStatus{}, err
	}
	var st matrixStatus
	if err := c.call(ctx, rec, "server.matrix_post", op, http.MethodPost, "/matrix", body, &st, http.StatusAccepted); err != nil {
		return matrixStatus{}, err
	}
	for st.State == "running" {
		path := fmt.Sprintf("/matrix/%s?wait=1&since=%d", st.ID, st.Version)
		var next matrixStatus
		if err := c.call(ctx, rec, "server.matrix_wait", op, http.MethodGet, path, nil, &next, http.StatusOK); err != nil {
			return matrixStatus{}, err
		}
		st = next
	}
	if st.State != "done" {
		return st, fmt.Errorf("matrix %s ended %s", st.ID, st.State)
	}
	return st, nil
}

func jsonBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	return b, nil
}
