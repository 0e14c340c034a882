package pipesim

import (
	"errors"
	"fmt"

	"pipesim/internal/obs"
)

// Upper bounds accepted by Config.Validate. They are guardrails for
// programmatic sweeps over arbitrary user input: far beyond anything the
// paper simulates (an on-chip cache of the era is a few hundred bytes),
// but small enough that a hostile or fuzzed configuration cannot make the
// simulator allocate unbounded memory or spin for hours.
const (
	// MaxCacheBytes bounds CacheBytes and DCacheBytes.
	MaxCacheBytes = 1 << 22
	// MaxLineBytes bounds LineBytes, DCacheLineBytes and TIBLineBytes.
	MaxLineBytes = 1 << 12
	// MaxQueueBytes bounds IQBytes and IQBBytes.
	MaxQueueBytes = 1 << 16
	// MaxMemAccessTime bounds MemAccessTime.
	MaxMemAccessTime = 4096
	// MaxFPULatency bounds FPULatency.
	MaxFPULatency = 4096
	// MaxQueueDepth bounds the architectural queue depths.
	MaxQueueDepth = 1 << 16
	// MaxTIBEntries bounds TIBEntries.
	MaxTIBEntries = 4096
	// MaxCacheTopPCs bounds CacheTopPCs.
	MaxCacheTopPCs = 1 << 16
	// MaxFlightRecorderDepth bounds FlightRecorderDepth: 65536 events, a
	// 2 MiB ring.
	MaxFlightRecorderDepth = obs.MaxFlightRecDepth
)

// ErrInvalidConfig tags every error returned by Config.Validate, so callers
// can distinguish configuration mistakes from run-time failures with
// errors.Is(err, pipesim.ErrInvalidConfig).
var ErrInvalidConfig = errors.New("invalid configuration")

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks every Config field against the machine the simulator can
// model and returns all violations at once (one error per offending field,
// joined). It enforces the paper's structural relations — power-of-two
// cache geometry, the Table II requirement that the IQB holds at least one
// full line, a 4- or 8-byte input bus — plus strategy-specific rules and
// sanity bounds that keep arbitrary inputs from exhausting memory.
//
// NewSimulation (and therefore Run) calls Validate, so an invalid
// configuration always surfaces as an error, never as a crash deep inside
// the simulator.
func (c Config) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s", field, fmt.Sprintf(format, args...)))
	}

	switch c.Strategy {
	case StrategyPIPE, StrategyConventional, StrategyTIB:
	default:
		bad("Strategy", "unknown strategy %q (want %q, %q or %q)",
			c.Strategy, StrategyPIPE, StrategyConventional, StrategyTIB)
	}

	// On-chip cache geometry. Every strategy validates it (the TIB front
	// end ignores the array but the machine still instantiates it).
	cacheOK := true
	if !isPow2(c.CacheBytes) || c.CacheBytes > MaxCacheBytes {
		bad("CacheBytes", "%d must be a power of two in [1, %d]", c.CacheBytes, MaxCacheBytes)
		cacheOK = false
	}
	if !isPow2(c.LineBytes) || c.LineBytes < 4 || c.LineBytes > MaxLineBytes {
		bad("LineBytes", "%d must be a power of two in [4, %d]", c.LineBytes, MaxLineBytes)
		cacheOK = false
	}
	if cacheOK && c.LineBytes > c.CacheBytes {
		bad("LineBytes", "line %d bytes does not fit the %d-byte cache", c.LineBytes, c.CacheBytes)
	}

	switch c.Strategy {
	case StrategyPIPE:
		// Table II relations: the IQ holds at least one instruction, the
		// IQB at least one full line (it receives whole line fills), and
		// both are word-granular hardware.
		if c.IQBytes < 4 || c.IQBytes%4 != 0 || c.IQBytes > MaxQueueBytes {
			bad("IQBytes", "%d must be a multiple of 4 in [4, %d]", c.IQBytes, MaxQueueBytes)
		}
		if c.IQBBytes < 4 || c.IQBBytes%4 != 0 || c.IQBBytes > MaxQueueBytes {
			bad("IQBBytes", "%d must be a multiple of 4 in [4, %d]", c.IQBBytes, MaxQueueBytes)
		} else if c.LineBytes >= 4 && c.IQBBytes < c.LineBytes {
			bad("IQBBytes", "IQB %d bytes must hold at least one %d-byte line (Table II)", c.IQBBytes, c.LineBytes)
		}
	case StrategyConventional:
		// The off-chip fetch unit is one bus transfer, which must fit
		// inside the tag granularity.
		if c.BusWidthBytes > c.LineBytes && c.LineBytes >= 4 {
			bad("LineBytes", "line %d bytes smaller than the %d-byte bus fetch unit", c.LineBytes, c.BusWidthBytes)
		}
	case StrategyTIB:
		if c.TIBEntries < 1 || c.TIBEntries > MaxTIBEntries {
			bad("TIBEntries", "%d must be in [1, %d]", c.TIBEntries, MaxTIBEntries)
		}
		if c.TIBLineBytes < 4 || c.TIBLineBytes%4 != 0 || c.TIBLineBytes > MaxLineBytes {
			bad("TIBLineBytes", "%d must be a multiple of 4 in [4, %d]", c.TIBLineBytes, MaxLineBytes)
		}
		if c.NativeFormat {
			bad("NativeFormat", "the TIB front end does not support the native instruction format")
		}
	}

	if c.MemAccessTime < 1 || c.MemAccessTime > MaxMemAccessTime {
		bad("MemAccessTime", "%d must be in [1, %d]", c.MemAccessTime, MaxMemAccessTime)
	}
	if c.BusWidthBytes != 4 && c.BusWidthBytes != 8 {
		bad("BusWidthBytes", "%d not supported (the paper's input bus is 4 or 8 bytes)", c.BusWidthBytes)
	}
	if c.FPULatency < 1 || c.FPULatency > MaxFPULatency {
		bad("FPULatency", "%d must be in [1, %d]", c.FPULatency, MaxFPULatency)
	}

	for _, q := range []struct {
		name  string
		depth int
	}{
		{"LAQDepth", c.LAQDepth},
		{"LDQDepth", c.LDQDepth},
		{"SAQDepth", c.SAQDepth},
		{"SDQDepth", c.SDQDepth},
	} {
		if q.depth < 1 || q.depth > MaxQueueDepth {
			bad(q.name, "%d must be in [1, %d]", q.depth, MaxQueueDepth)
		}
	}

	if c.DCacheBytes != 0 {
		line := c.DCacheLineBytes
		if line == 0 {
			line = 16 // the data cache's documented default tag granularity
		}
		dcOK := true
		if !isPow2(c.DCacheBytes) || c.DCacheBytes > MaxCacheBytes {
			bad("DCacheBytes", "%d must be 0 (no data cache) or a power of two in [4, %d]", c.DCacheBytes, MaxCacheBytes)
			dcOK = false
		}
		if !isPow2(line) || line < 4 || line > MaxLineBytes {
			bad("DCacheLineBytes", "%d must be 0 (default 16) or a power of two in [4, %d]", c.DCacheLineBytes, MaxLineBytes)
			dcOK = false
		}
		if dcOK && line > c.DCacheBytes {
			bad("DCacheLineBytes", "line %d bytes does not fit the %d-byte data cache", line, c.DCacheBytes)
		}
	} else if c.DCacheLineBytes != 0 {
		bad("DCacheLineBytes", "set without DCacheBytes")
	}

	if c.FlightRecorderDepth > MaxFlightRecorderDepth {
		bad("FlightRecorderDepth", "%d must be at most %d (0 selects the default, negative disables)",
			c.FlightRecorderDepth, MaxFlightRecorderDepth)
	}

	if c.CacheStats {
		if c.CacheTopPCs > MaxCacheTopPCs {
			bad("CacheTopPCs", "%d must be at most %d", c.CacheTopPCs, MaxCacheTopPCs)
		}
	} else if c.CacheTopPCs != 0 {
		bad("CacheTopPCs", "set without CacheStats")
	}

	if c.InterruptAt != 0 {
		align := uint32(4)
		if c.NativeFormat {
			align = 2 // parcel granularity
		}
		if c.InterruptVector%align != 0 {
			bad("InterruptVector", "%#x must be %d-byte aligned", c.InterruptVector, align)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("pipesim: %w: %w", ErrInvalidConfig, errors.Join(errs...))
}
