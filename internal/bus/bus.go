// Package bus models the interconnect between adjacent levels of the
// memory hierarchy: a synchronous bus with a fixed width and cycle time.
// In the paper's base machine both the processor–L2 bus and the L2–memory
// bus are 4 words (16 bytes) wide and cycle at the L2 cache rate.
//
// A Bus is also a schedulable resource: demand fetches and background
// write-buffer drains contend for it through Reserve.
package bus

import "fmt"

// WordBytes is the machine word size (the paper's 32-bit words).
const WordBytes = 4

// Config describes a bus.
type Config struct {
	Name       string
	WidthBytes int   // data transferred per bus cycle
	CycleNS    int64 // bus cycle time in nanoseconds
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.WidthBytes <= 0 {
		return fmt.Errorf("bus %s: width %d must be positive", c.Name, c.WidthBytes)
	}
	if c.CycleNS <= 0 {
		return fmt.Errorf("bus %s: cycle time %d must be positive", c.Name, c.CycleNS)
	}
	return nil
}

// Bus is a time-tracked bus resource. It is not safe for concurrent use.
type Bus struct {
	cfg    Config
	freeAt int64
	// Cycles counts bus cycles consumed, for utilization reports.
	cycles int64
}

// New constructs a bus.
func New(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{cfg: cfg}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Bus {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// TransferNS returns the time to move n bytes across the bus: one bus cycle
// per width-sized beat, rounded up.
func (b *Bus) TransferNS(n int) int64 {
	if n <= 0 {
		return 0
	}
	beats := (n + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes
	return int64(beats) * b.cfg.CycleNS
}

// Reserve claims the bus for dur nanoseconds no earlier than earliest,
// returning the actual start and completion times. The bus serves requests
// in arrival order (no preemption).
func (b *Bus) Reserve(earliest, dur int64) (start, done int64) {
	start = earliest
	if b.freeAt > start {
		start = b.freeAt
	}
	done = start + dur
	b.freeAt = done
	if b.cfg.CycleNS > 0 {
		b.cycles += dur / b.cfg.CycleNS
	}
	return start, done
}

// FreeAt returns the earliest time at which the bus is next idle.
func (b *Bus) FreeAt() int64 { return b.freeAt }

// BusyCycles returns the cumulative number of bus cycles consumed.
func (b *Bus) BusyCycles() int64 { return b.cycles }
