package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesim"
	"pipesim/internal/obs"
)

// FuzzRunOverlay feeds arbitrary /v1/run bodies through everything the
// daemon does before a run: decodeRunRequest, buildRunConfig (Table II
// base, config overlay, program choice) and Validate. None of it may
// panic or hang, every rejection must carry its taxonomy kind, and a
// configuration Validate accepts must key and size its flight recorder
// promptly.
func FuzzRunOverlay(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"config": {"FlightRecorderDepth": 9223372036854775807}}`,
		`{"config": {"FlightRecorderDepth": -9223372036854775808}}`,
		`{"config": {"FlightRecorderDepth": 65536}}`,
		`{"table_ii": "16-32", "config": {"CacheBytes": 64, "MemAccessTime": 6, "BusWidthBytes": 8}}`,
		`{"config": {"Strategy": "conventional", "LineBytes": 8}}`,
		`{"config": {"CacheBytes": 3}}`,
		`{"config": {"Nope": 1}}`,
		`{"table_ii": "9-9"}`,
		`{"asm": "halt"}`,
		`{"asm": "halt", "kernel": 3}`,
		`{"kernel": 3, "per_loop": true}`,
		`{"kernel": -1}`,
		`{"config": `,
		`[]`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		ctx := context.Background()
		r := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		req, kind, err := decodeRunRequest(ctx, httptest.NewRecorder(), r, 1<<20)
		if err != nil {
			if kind != errKindBadRequest {
				t.Fatalf("decode error %v has kind %q", err, kind)
			}
			return
		}
		cfg, prog, kind, err := buildRunConfig(ctx, req)
		if err != nil {
			if kind != errKindBadRequest {
				t.Fatalf("build error %v has kind %q", err, kind)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			if !errors.Is(err, pipesim.ErrInvalidConfig) {
				t.Fatalf("Validate error does not wrap ErrInvalidConfig: %v", err)
			}
			return
		}
		if _, err := pipesim.NewArchivedRun(cfg, prog); err != nil {
			t.Fatalf("Validate accepted a config NewArchivedRun rejects: %v", err)
		}
		start := time.Now()
		obs.NewSink(cfg.FlightRecorderDepth)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("sizing a %d-event flight recorder took %s", cfg.FlightRecorderDepth, d)
		}
	})
}
