package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
)

// FuzzRunstoreRecord writes arbitrary bytes as one record file and opens
// the store over it. Open must succeed, nothing may panic, and GetHex may
// only serve a record whose key is its file name. A file that is not JSON,
// or a current-schema record under the wrong name, is dropped; a record of
// another schema is a miss left on disk (it may belong to a newer
// replica).
func FuzzRunstoreRecord(f *testing.F) {
	cfg := core.DefaultConfig()
	key := runcache.KeyFor(cfg, testImage(f).Fingerprint()).String()
	seedDir := f.TempDir()
	seed, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	k, err := runcache.ParseKey(key)
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(k, cfg, &stats.Sim{Cycles: 1234}); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed.entryPath(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(bytes.Replace(raw, []byte(key), []byte(strings.Repeat("0", len(key))), 1))
	f.Add([]byte(`{"schema":"pipesim-runs/v999","key":"` + key + `"}`))
	f.Add([]byte("null"))
	f.Add([]byte("not json at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open failed on a corrupt record: %v", err)
		}
		for _, e := range s.List() {
			if e.Key != key {
				t.Fatalf("index lists key %s for file %s", e.Key, key)
			}
		}
		rec, ok := s.GetHex(key)
		if ok {
			if rec.Key != key {
				t.Fatalf("served record keyed %q from file %s", rec.Key, key)
			}
			return
		}
		var parsed Record
		jsonErr := json.Unmarshal(data, &parsed)
		_, statErr := os.Stat(path)
		switch {
		case jsonErr != nil || parsed.Schema == Schema:
			if !os.IsNotExist(statErr) {
				t.Fatalf("corrupt record not dropped (json err %v, key %q)", jsonErr, parsed.Key)
			}
		default:
			if statErr != nil {
				t.Fatalf("foreign-schema record removed: %v", statErr)
			}
		}
	})
}
