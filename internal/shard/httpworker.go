// httpworker.go adapts an ordinary cvserved daemon into a shard Worker.
// Constraints travel as rules-language text (the same rendering the
// snapshot store persists), so the worker needs no registry agreement with
// the coordinator; updates and witnesses use the service wire types
// verbatim. A worker daemon may itself run with -data-dir and bootstrap or
// recover over the snapshot-fetch/WAL-tail transport — the coordinator only
// sees its /check, /update and /witnesses surface.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/store"
)

// HTTPWorker drives one remote cvserved daemon as a shard worker.
type HTTPWorker struct {
	shard int
	base  string // base URL without trailing slash
	c     *http.Client

	epoch    atomic.Uint64
	up       atomic.Bool
	checks   atomic.Uint64
	updates  atomic.Uint64
	failures atomic.Uint64
}

// NewHTTPWorker wraps the daemon at baseURL as shard worker i. client may
// be nil for http.DefaultClient; per-request deadlines come from the
// caller's context.
func NewHTTPWorker(shard int, baseURL string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	w := &HTTPWorker{shard: shard, base: strings.TrimRight(baseURL, "/"), c: client}
	w.up.Store(true)
	return w
}

func (w *HTTPWorker) Shard() int { return w.shard }

// post sends one JSON request and decodes the reply into out, translating
// transport failures and non-200 statuses into *WorkerError.
func (w *HTTPWorker) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return &WorkerError{Shard: w.shard, URL: w.base, Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(buf))
	if err != nil {
		return &WorkerError{Shard: w.shard, URL: w.base, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.c.Do(req)
	if err != nil {
		w.fail()
		return &WorkerError{Shard: w.shard, URL: w.base, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.fail()
		msg := readErrorEnvelope(resp.Body)
		return &WorkerError{Shard: w.shard, URL: w.base,
			Err: fmt.Errorf("%s %s: %s", path, resp.Status, msg)}
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out); err != nil {
		w.fail()
		return &WorkerError{Shard: w.shard, URL: w.base, Err: fmt.Errorf("%s: decoding reply: %w", path, err)}
	}
	w.up.Store(true)
	return nil
}

func (w *HTTPWorker) fail() {
	w.up.Store(false)
	w.failures.Add(1)
}

// readErrorEnvelope extracts the service's {"error": "..."} body, falling
// back to the raw text for non-JSON errors.
func readErrorEnvelope(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return env.Error
	}
	return strings.TrimSpace(string(raw))
}

func (w *HTTPWorker) Check(ctx context.Context, cts []logic.Constraint, budget int) ([]CheckOutcome, error) {
	var resp service.CheckResponse
	err := w.post(ctx, "/check", service.CheckRequest{
		Text:       store.RenderConstraints(cts),
		NodeBudget: budget,
	}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(cts) {
		w.fail()
		return nil, &WorkerError{Shard: w.shard, URL: w.base,
			Err: fmt.Errorf("/check returned %d results for %d constraints", len(resp.Results), len(cts))}
	}
	if resp.Epoch > 0 {
		w.epoch.Store(resp.Epoch)
	}
	w.checks.Add(uint64(len(cts)))
	return outcomesOf(cts, resp.Results), nil
}

func (w *HTTPWorker) Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int) ([]core.Witness, error) {
	var resp service.WitnessResponse
	err := w.post(ctx, "/witnesses", service.WitnessRequest{
		Text:       store.RenderConstraints([]logic.Constraint{ct}),
		Limit:      limit,
		NodeBudget: budget,
	}, &resp)
	if err != nil {
		return nil, err
	}
	ws := make([]core.Witness, len(resp.Witnesses))
	for i, wit := range resp.Witnesses {
		ws[i] = core.Witness{Vars: wit.Vars, Values: wit.Values}
	}
	w.checks.Add(1)
	return ws, nil
}

func (w *HTTPWorker) Update(ctx context.Context, ups []core.Update) (int, error) {
	wire := make([]service.UpdateTuple, len(ups))
	for i, u := range ups {
		wire[i] = service.UpdateTuple{Table: u.Table, Op: string(u.Op), Values: u.Values}
	}
	var resp service.UpdateResponse
	if err := w.post(ctx, "/update", service.UpdateRequest{Updates: wire}, &resp); err != nil {
		return 0, err
	}
	if resp.Error != "" {
		w.failures.Add(1)
		return resp.Applied, &WorkerError{Shard: w.shard, URL: w.base, Err: fmt.Errorf("/update: %s", resp.Error)}
	}
	w.updates.Add(uint64(len(ups)))
	w.epoch.Add(1)
	return resp.Applied, nil
}

func (w *HTTPWorker) Status() WorkerStatus {
	return WorkerStatus{
		Shard:   w.shard,
		URL:     w.base,
		Up:      w.up.Load(),
		Epoch:   w.epoch.Load(),
		Checks:  w.checks.Load(),
		Updates: w.updates.Load(),
		Errors:  w.failures.Load(),
	}
}

// Close is a no-op: the HTTP client is caller-owned.
func (w *HTTPWorker) Close() {}
