package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesim"
	"pipesim/internal/runcache"
)

// hitBody is a serve-mix style /v1/run request: a Table II base with the
// cache geometry and memory system overlaid.
const hitBody = `{"config":{"BusWidthBytes":8,"CacheBytes":128,"MemAccessTime":6,"PipelinedMemory":false},"table_ii":"16-32"}`

// BenchmarkServeRunHit measures one /v1/run memory hit through the
// daemon's whole handler — request ID, tracing, decode, build, the run
// cache lookup and the JSON reply — in process, without a network. The
// server runs as perfbench starts it (warn-level logs, the default
// -run-timeout). BenchmarkRunArchivedHit is the same lookup without HTTP
// and JSON; the gap between the two is the cost of serving it.
func BenchmarkServeRunHit(b *testing.B) {
	runcache.Default.SetStore(nil)
	runcache.Default.Reset()
	log := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s, err := newServer(log, serverOptions{runLimit: 5 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pipesim.SetRunHook(nil) })
	if err := s.warm(); err != nil {
		b.Fatal(err)
	}
	// The request is built directly (not parsed from text, as
	// httptest.NewRequest does) and the reply checked in place, so the
	// harness adds little beside the handler it measures.
	serve := func() *httptest.ResponseRecorder {
		req, err := http.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(hitBody))
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve() // simulate once; every timed op is a memory hit
	memory := []byte(`"source":"memory"`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); !bytes.Contains(rec.Body.Bytes(), memory) {
			b.Fatalf("op %d not a memory hit: %s", i, rec.Body)
		}
	}
}
