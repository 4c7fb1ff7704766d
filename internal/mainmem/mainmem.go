// Package mainmem models the main-memory (DRAM) timing of the simulated
// machine. Following the paper's memory model (§2), access time decomposes
// into three components: a read operation (address available to a full
// block of data available) takes ReadNS; a write operation takes WriteNS;
// and at least RecoveryNS of refresh and cycle time must elapse between the
// starts of successive data operations.
//
// For the base machine (read 180 ns, write 100 ns, recovery 120 ns, 30 ns
// backplane) the resulting L2 miss penalty for an 8-word block is 270 ns
// when memory is idle — 1 address cycle + 180 ns + 2 data-return cycles —
// rising when the request collides with an earlier operation or the
// recovery window, matching the paper's 270–370 ns range.
package mainmem

import "fmt"

// Config describes main-memory timing.
type Config struct {
	ReadNS     int64 // address available -> block data available
	WriteNS    int64 // address+data available -> write complete
	RecoveryNS int64 // minimum spacing between starts of data operations
	// PageBytes enables page-mode DRAM: an access whose address falls in
	// the currently open row (of PageBytes) completes in PageHitReadNS
	// instead of ReadNS. Zero disables page mode (the paper's flat
	// model).
	PageBytes     int64
	PageHitReadNS int64
}

// Base returns the paper's base-machine memory timing.
func Base() Config { return Config{ReadNS: 180, WriteNS: 100, RecoveryNS: 120} }

// Slow returns the paper's "slow main memory" variant (Figure 4-4): a main
// memory twice as slow as the base system.
func Slow() Config { return Config{ReadNS: 360, WriteNS: 200, RecoveryNS: 240} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ReadNS <= 0 || c.WriteNS <= 0 {
		return fmt.Errorf("mainmem: read %d and write %d times must be positive", c.ReadNS, c.WriteNS)
	}
	if c.RecoveryNS < 0 {
		return fmt.Errorf("mainmem: recovery time %d must be non-negative", c.RecoveryNS)
	}
	if c.PageBytes < 0 {
		return fmt.Errorf("mainmem: page size %d must be non-negative", c.PageBytes)
	}
	if c.PageBytes > 0 {
		if c.PageHitReadNS <= 0 || c.PageHitReadNS > c.ReadNS {
			return fmt.Errorf("mainmem: page-hit read %d must be in (0, %d]", c.PageHitReadNS, c.ReadNS)
		}
	}
	return nil
}

// WithPageMode returns the configuration with page-mode enabled.
func (c Config) WithPageMode(pageBytes, hitReadNS int64) Config {
	c.PageBytes = pageBytes
	c.PageHitReadNS = hitReadNS
	return c
}

// Memory is a time-tracked main-memory resource. It is not safe for
// concurrent use.
type Memory struct {
	cfg       Config
	lastStart int64
	lastEnd   int64
	started   bool
	reads     int64
	writes    int64
	stallNS   int64 // time requests spent waiting on the memory
	openRow   int64
	rowOpen   bool
}

// New constructs a Memory.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{cfg: cfg}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// FreeAt returns the earliest time the next operation may start.
func (m *Memory) FreeAt() int64 {
	if !m.started {
		return 0
	}
	next := m.lastEnd
	if s := m.lastStart + m.cfg.RecoveryNS; s > next {
		next = s
	}
	return next
}

func (m *Memory) begin(earliest int64) (start int64) {
	start = earliest
	if f := m.FreeAt(); f > start {
		start = f
	}
	m.stallNS += start - earliest
	m.lastStart = start
	m.started = true
	return start
}

// touchRow updates the open-row state and reports whether the access hit
// the open row (always false when page mode is off).
func (m *Memory) touchRow(addr uint64) bool {
	if m.cfg.PageBytes <= 0 {
		return false
	}
	row := int64(addr / uint64(m.cfg.PageBytes))
	hit := m.rowOpen && row == m.openRow
	m.openRow, m.rowOpen = row, true
	return hit
}

// Read performs a block read of addr whose address arrives at time
// earliest, and returns the time the full block of data is available.
func (m *Memory) Read(addr uint64, earliest int64) (dataReady int64) {
	start := m.begin(earliest)
	dur := m.cfg.ReadNS
	if m.touchRow(addr) {
		dur = m.cfg.PageHitReadNS
	}
	m.lastEnd = start + dur
	m.reads++
	return m.lastEnd
}

// Write performs a block write of addr whose address and data arrive at
// time earliest, and returns the time the write completes.
func (m *Memory) Write(addr uint64, earliest int64) (done int64) {
	start := m.begin(earliest)
	m.touchRow(addr) // writes move the open row but keep their flat time
	m.lastEnd = start + m.cfg.WriteNS
	m.writes++
	return m.lastEnd
}

// Stats reports operation counts and cumulative queueing delay.
func (m *Memory) Stats() (reads, writes, stallNS int64) {
	return m.reads, m.writes, m.stallNS
}
