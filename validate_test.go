package pipesim_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pipesim"
)

// TestValidateAcceptsPaperConfigs checks that every configuration the paper
// presents passes validation.
func TestValidateAcceptsPaperConfigs(t *testing.T) {
	if err := pipesim.DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig: %v", err)
	}
	for _, name := range []string{"8-8", "16-16", "16-32", "32-32"} {
		cfg, err := pipesim.TableIIConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("TableIIConfig(%s): %v", name, err)
		}
		for _, T := range []int{1, 2, 3, 6} {
			for _, bus := range []int{4, 8} {
				cfg.MemAccessTime, cfg.BusWidthBytes = T, bus
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s T=%d bus=%d: %v", name, T, bus, err)
				}
			}
		}
	}
	conv := pipesim.DefaultConfig()
	conv.Strategy = pipesim.StrategyConventional
	if err := conv.Validate(); err != nil {
		t.Errorf("conventional: %v", err)
	}
	tib := pipesim.DefaultConfig()
	tib.Strategy = pipesim.StrategyTIB
	if err := tib.Validate(); err != nil {
		t.Errorf("tib: %v", err)
	}
	deep := pipesim.DefaultConfig()
	deep.FlightRecorderDepth = pipesim.MaxFlightRecorderDepth
	if err := deep.Validate(); err != nil {
		t.Errorf("deepest flight recorder: %v", err)
	}
}

// TestValidateRules exercises every individual validation rule.
func TestValidateRules(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*pipesim.Config)
		want   string // substring of the field error
	}{
		{"unknown strategy", func(c *pipesim.Config) { c.Strategy = "oracle" }, "Strategy"},
		{"zero cache", func(c *pipesim.Config) { c.CacheBytes = 0 }, "CacheBytes"},
		{"negative cache", func(c *pipesim.Config) { c.CacheBytes = -128 }, "CacheBytes"},
		{"non-pow2 cache", func(c *pipesim.Config) { c.CacheBytes = 96 }, "CacheBytes"},
		{"oversized cache", func(c *pipesim.Config) { c.CacheBytes = pipesim.MaxCacheBytes * 2 }, "CacheBytes"},
		{"zero line", func(c *pipesim.Config) { c.LineBytes = 0 }, "LineBytes"},
		{"non-pow2 line", func(c *pipesim.Config) { c.LineBytes = 24; c.IQBBytes = 32 }, "LineBytes"},
		{"sub-word line", func(c *pipesim.Config) { c.LineBytes = 2 }, "LineBytes"},
		{"line exceeds cache", func(c *pipesim.Config) { c.CacheBytes = 16; c.LineBytes = 32; c.IQBBytes = 32 }, "LineBytes"},
		{"zero IQ", func(c *pipesim.Config) { c.IQBytes = 0 }, "IQBytes"},
		{"ragged IQ", func(c *pipesim.Config) { c.IQBytes = 10 }, "IQBytes"},
		{"oversized IQ", func(c *pipesim.Config) { c.IQBytes = pipesim.MaxQueueBytes * 2 }, "IQBytes"},
		{"zero IQB", func(c *pipesim.Config) { c.IQBBytes = 0 }, "IQBBytes"},
		{"ragged IQB", func(c *pipesim.Config) { c.IQBBytes = 18 }, "IQBBytes"},
		{"IQB below line (Table II)", func(c *pipesim.Config) { c.LineBytes = 32; c.IQBBytes = 16 }, "IQBBytes"},
		{"bus exceeds conv line", func(c *pipesim.Config) {
			c.Strategy = pipesim.StrategyConventional
			c.LineBytes = 4
			c.BusWidthBytes = 8
		}, "LineBytes"},
		{"zero TIB entries", func(c *pipesim.Config) { c.Strategy = pipesim.StrategyTIB; c.TIBEntries = 0 }, "TIBEntries"},
		{"oversized TIB entries", func(c *pipesim.Config) {
			c.Strategy = pipesim.StrategyTIB
			c.TIBEntries = pipesim.MaxTIBEntries + 1
		}, "TIBEntries"},
		{"ragged TIB line", func(c *pipesim.Config) { c.Strategy = pipesim.StrategyTIB; c.TIBLineBytes = 6 }, "TIBLineBytes"},
		{"TIB with native format", func(c *pipesim.Config) { c.Strategy = pipesim.StrategyTIB; c.NativeFormat = true }, "NativeFormat"},
		{"zero access time", func(c *pipesim.Config) { c.MemAccessTime = 0 }, "MemAccessTime"},
		{"oversized access time", func(c *pipesim.Config) { c.MemAccessTime = pipesim.MaxMemAccessTime + 1 }, "MemAccessTime"},
		{"bad bus width", func(c *pipesim.Config) { c.BusWidthBytes = 6 }, "BusWidthBytes"},
		{"16-byte bus rejected", func(c *pipesim.Config) { c.BusWidthBytes = 16 }, "BusWidthBytes"},
		{"zero FPU latency", func(c *pipesim.Config) { c.FPULatency = 0 }, "FPULatency"},
		{"zero LAQ", func(c *pipesim.Config) { c.LAQDepth = 0 }, "LAQDepth"},
		{"zero LDQ", func(c *pipesim.Config) { c.LDQDepth = 0 }, "LDQDepth"},
		{"zero SAQ", func(c *pipesim.Config) { c.SAQDepth = 0 }, "SAQDepth"},
		{"negative SDQ", func(c *pipesim.Config) { c.SDQDepth = -1 }, "SDQDepth"},
		{"oversized LAQ", func(c *pipesim.Config) { c.LAQDepth = pipesim.MaxQueueDepth + 1 }, "LAQDepth"},
		{"non-pow2 dcache", func(c *pipesim.Config) { c.DCacheBytes = 100 }, "DCacheBytes"},
		{"dcache line exceeds dcache", func(c *pipesim.Config) { c.DCacheBytes = 8 }, "DCacheLineBytes"},
		{"ragged dcache line", func(c *pipesim.Config) { c.DCacheBytes = 64; c.DCacheLineBytes = 12 }, "DCacheLineBytes"},
		{"dcache line without dcache", func(c *pipesim.Config) { c.DCacheLineBytes = 16 }, "DCacheLineBytes"},
		{"misaligned interrupt vector", func(c *pipesim.Config) { c.InterruptAt = 100; c.InterruptVector = 2 }, "InterruptVector"},
		{"oversized flight recorder", func(c *pipesim.Config) { c.FlightRecorderDepth = pipesim.MaxFlightRecorderDepth + 1 }, "FlightRecorderDepth"},
		{"MaxInt64 flight recorder", func(c *pipesim.Config) { c.FlightRecorderDepth = math.MaxInt64 }, "FlightRecorderDepth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipesim.DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			if !errors.Is(err, pipesim.ErrInvalidConfig) {
				t.Errorf("error does not wrap ErrInvalidConfig: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name field %q", err, tc.want)
			}
		})
	}
}

// TestValidateReportsAllFields checks that one call reports every offending
// field at once.
func TestValidateReportsAllFields(t *testing.T) {
	cfg := pipesim.DefaultConfig()
	cfg.CacheBytes = 7
	cfg.MemAccessTime = 0
	cfg.LAQDepth = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a triply-invalid config")
	}
	for _, field := range []string{"CacheBytes", "MemAccessTime", "LAQDepth"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error misses %s: %v", field, err)
		}
	}
}

// TestNewSimulationRejectsInvalidConfig checks that the public constructor
// validates before building any machine state.
func TestNewSimulationRejectsInvalidConfig(t *testing.T) {
	prog, err := pipesim.Assemble("halt\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	cfg.CacheBytes = 0
	if _, err := pipesim.NewSimulation(cfg, prog); !errors.Is(err, pipesim.ErrInvalidConfig) {
		t.Fatalf("NewSimulation err = %v, want ErrInvalidConfig", err)
	}
	if _, err := pipesim.Run(cfg, prog); !errors.Is(err, pipesim.ErrInvalidConfig) {
		t.Fatalf("Run err = %v, want ErrInvalidConfig", err)
	}
}
