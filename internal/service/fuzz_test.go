package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/service"
)

// stubBackend answers every request the edge lets through, so what FuzzEdge
// sees is the edge's own decoding, limits and envelopes. It resolves against
// a real registry (inline text goes through the rules parser) and refuses a
// pin past epoch 1 the way a Server does.
type stubBackend struct {
	*service.Registry
	metrics *obs.Registry
}

func (b *stubBackend) Check(_ context.Context, cts []logic.Constraint, _, _ int, pin uint64, _ *obs.Trace) ([]service.CheckResult, uint64, error) {
	if pin > 1 {
		return nil, 0, service.ErrFutureEpoch
	}
	results := make([]service.CheckResult, len(cts))
	for i, ct := range cts {
		results[i] = service.CheckResult{Name: ct.Name, Method: "bdd"}
	}
	return results, 1, nil
}

func (b *stubBackend) Witnesses(_ context.Context, ct logic.Constraint, _, _ int, _ *obs.Trace) ([]core.Witness, string, error) {
	return []core.Witness{{Vars: []string{"a"}, Values: []string{ct.Name}}}, "bdd", nil
}

func (b *stubBackend) Update(_ context.Context, ups []core.Update, _ *obs.Trace) (int, error) {
	return len(ups), nil
}

func (b *stubBackend) Statsz() any            { return struct{}{} }
func (b *stubBackend) Metrics() *obs.Registry { return b.metrics }

// FuzzEdge drives the HTTP edge's strict decode with arbitrary bodies and
// query strings on the three POST routes. The edge must not panic, must
// answer with a status it documents for a backend that fails nothing but
// future pins (200; 400 for a malformed body, query or constraint text; 404
// for ?epoch= past the current epoch; 413 past the body cap), and a 200 must
// carry that route's response type, decoded as strictly as the edge decodes
// requests.
func FuzzEdge(f *testing.F) {
	cts, err := logic.ParseConstraints(testRules)
	if err != nil {
		f.Fatal(err)
	}
	reg, err := service.NewRegistry(cts)
	if err != nil {
		f.Fatal(err)
	}
	h := service.NewHandler(&stubBackend{Registry: reg, metrics: obs.NewRegistry()}, service.Options{MaxBodyBytes: 512})
	routes := []struct {
		path string
		resp func() any
	}{
		{"/check", func() any { return &service.CheckResponse{} }},
		{"/witnesses", func() any { return &service.WitnessResponse{} }},
		{"/update", func() any { return &service.UpdateResponse{} }},
	}
	f.Add(uint8(0), []byte(`{"frobnicate": 1}`), "epoch=1&trace=1")
	f.Add(uint8(1), []byte(`{"constraint":"nj_codes","limit":5}`), "trace=1")
	f.Add(uint8(2), []byte(`{"updates":[{"table":"CUST","op":"insert","values":["Oshawa","905","Ontario"]}]}`), "epoch=+1")
	f.Fuzz(func(t *testing.T, route uint8, body []byte, query string) {
		rt := routes[int(route)%len(routes)]
		req := httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(rt.resp()); err != nil {
				t.Fatalf("%s 200 body %q does not decode: %v", rt.path, rec.Body.String(), err)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("%s %d reply %q is not the error envelope (%v)", rt.path, rec.Code, rec.Body.String(), err)
			}
		default:
			t.Fatalf("%s?%s with body %q: status %d is not one the edge documents", rt.path, query, body, rec.Code)
		}
	})
}
