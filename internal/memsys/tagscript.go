package memsys

import (
	"errors"
	"fmt"

	"mlcache/internal/cache"
)

// Tag scripts: one tag-array simulation per L2 geometry.
//
// Replays that share a boundary log and the first downstream level's
// cache.Config present that level with the same reads and store fills in
// the same order, and the same buffered writes in the same order: a FIFO
// buffer without coalescing drains its j-th write as its j-th push, and the
// pushes come from the log. Only timing decides how the two streams
// interleave (how many writes CatchUp drains before each read). So if a
// replay's sequence of operation kinds equals another's, every operation
// carries the same address and the tag array answers it the same way.
//
// One replay — the tag pivot — records each operation's kind and outcome
// (RecordTags, TagScript). The others play the script (PlayTags): the level
// takes the recorded outcome instead of searching its tag array, while its
// port, the write buffers, the bus, memory and deeper levels run as usual.
// A played replay is exact only if every operation's kind matches the
// record's, statistics recording turns on at the same operation, and the
// operation counts agree; otherwise PlayTags returns ErrTagDiverged and the
// caller replays the point through its own tag array. See DESIGN.md §13.4.

// ErrTagDiverged reports that a played replay departed from its tag script:
// its operations interleaved differently from the tag pivot's, so the
// recorded outcomes do not apply. Replay the point with ReplayDown instead.
var ErrTagDiverged = errors.New("memsys: replay departed from its tag script")

// One byte per operation: the kind in the top two bits, the outcome below.
const (
	tagHit uint8 = 1 << iota
	tagFill
	tagWriteDown
	tagWriteback
	tagPartial

	tagRead      uint8 = 1 << 5 // a demand read fetching a block
	tagStoreFill uint8 = 2 << 5 // a write-allocate fill for an upstream store
	tagWrite     uint8 = 3 << 5 // a buffered write drained from upstream
	tagKindMask  uint8 = 3 << 5
)

// tagResults decodes an operation's outcome bits. The level copies a whole
// cache.Result from here and sets its victim, rather than receiving one
// assembled field by field, which would store single bytes and reload them
// as one word.
var tagResults = func() (r [1 << 5]cache.Result) {
	for op := range r {
		r[op] = cache.Result{
			Hit:       op&int(tagHit) != 0,
			Fill:      op&int(tagFill) != 0,
			WriteDown: op&int(tagWriteDown) != 0,
			Writeback: op&int(tagWriteback) != 0,
			Partial:   op&int(tagPartial) != 0,
		}
	}
	return r
}()

// TagScript is the recorded outcome of every operation on the first
// downstream level's tag array during one run. It is immutable once
// sealed, so any number of concurrent PlayTags calls may share it.
type TagScript struct {
	cfg cache.Config
	// ops holds one byte per operation; victims the address of each
	// writeback, in order.
	ops     []uint8
	victims []uint64
	// flipOp is the operation index at which statistics recording last
	// turned on, -1 if it was off at the end.
	flipOp int
	// stats are the level's final tag-array statistics.
	stats cache.Stats
}

// tagTape drives the first downstream level's tag array through a script:
// recording appends each operation's outcome, playing returns the recorded
// outcome in place of the access. A level holds a tape only while a run
// records or plays.
type tagTape struct {
	// ops and victims are the script's, held here so that playing an
	// operation reads them without another indirection.
	ops      []uint8
	victims  []uint64
	play     bool
	pos      int // operations so far
	wb       int // writeback victims played so far
	flipOp   int
	diverged bool
}

// access plays, or performs and records, one operation of the given kind
// on c, and returns its outcome bits (index tagResults with them) and its
// writeback victim. Playing an operation of another kind than the script's
// next, or one past its end, marks the tape diverged and answers a
// harmless hit; the replay stops at its next poll.
func (t *tagTape) access(c *cache.Cache, addr uint64, kind uint8) (outcome uint8, victim uint64) {
	if !t.play {
		return t.record(c, addr, kind)
	}
	if t.pos >= len(t.ops) || t.ops[t.pos]&tagKindMask != kind {
		t.diverged = true
		return tagHit, 0
	}
	op := t.ops[t.pos] &^ tagKindMask
	t.pos++
	if op&tagWriteback != 0 {
		victim = t.victims[t.wb]
		t.wb++
	}
	return op, victim
}

// record performs one operation of the given kind on c and appends its
// outcome to the script.
func (t *tagTape) record(c *cache.Cache, addr uint64, kind uint8) (outcome uint8, victim uint64) {
	var res cache.Result
	switch kind {
	case tagRead:
		res = c.Access(addr, false)
	case tagStoreFill:
		res = c.AccessQuiet(addr, false)
	default:
		res = c.Access(addr, true)
	}
	op := kind
	if res.Hit {
		op |= tagHit
	}
	if res.Fill {
		op |= tagFill
	}
	if res.WriteDown {
		op |= tagWriteDown
	}
	if res.Writeback {
		op |= tagWriteback
		t.victims = append(t.victims, res.VictimAddr)
	}
	if res.Partial {
		op |= tagPartial
	}
	t.ops = append(t.ops, op)
	t.pos++
	return op &^ tagKindMask, res.VictimAddr
}

// flip notes a statistics-recording toggle at the current operation.
func (t *tagTape) flip(on bool) {
	if on {
		t.flipOp = t.pos
	} else {
		t.flipOp = -1
	}
}

// tagKind maps a fetch origin to its operation kind.
func tagKind(org origin) uint8 {
	if org == originRead {
		return tagRead
	}
	return tagStoreFill
}

// Scriptable reports whether cfg's first downstream level can record or
// play a TagScript: there is one, its write buffer does not coalesce (a
// push absorbed by a buffered entry would break the push-order argument),
// and nothing prefetches into it behind the script's back.
func Scriptable(cfg Config) bool {
	if len(cfg.Down) == 0 || cfg.WBCoalesce || cfg.Down[0].Prefetch {
		return false
	}
	for _, lc := range cfg.firstLevels() {
		if lc.Prefetch {
			return false
		}
	}
	return true
}

// RecordTags makes the hierarchy record a TagScript of its first downstream
// level during the next run, a ReplayDown or a cpu.Run; TagScript seals it.
// The hierarchy must be freshly constructed or Reset.
func (h *Hierarchy) RecordTags() error {
	if !Scriptable(h.cfg) {
		return fmt.Errorf("memsys: level configuration cannot record a tag script")
	}
	lvl := h.down[0]
	lvl.tags = &tagTape{}
	lvl.tags.flip(lvl.recording)
	return nil
}

// TagScript seals and returns the script recorded since RecordTags and
// stops recording. It returns nil when nothing was recording. Call it after
// a failed run too, so the hierarchy holds no script.
func (h *Hierarchy) TagScript() *TagScript {
	if len(h.down) == 0 || h.down[0].tags == nil {
		return nil
	}
	lvl := h.down[0]
	t := lvl.tags
	lvl.tags = nil
	return &TagScript{
		cfg:     lvl.cfg.Cache,
		ops:     t.ops,
		victims: t.victims,
		flipOp:  t.flipOp,
		stats:   lvl.cache.Stats(),
	}
}

// PlayTags is ReplayDown with the first downstream level's tag array
// replaced by s, a script recorded over the same boundary log on a level
// with the same cache.Config. It returns ErrTagDiverged when the replay's
// operations depart from the record (the hierarchy must then be Reset
// before reuse). On success the level reports the script's tag-array
// statistics; the hierarchy keeps no reference to s either way.
func (h *Hierarchy) PlayTags(log *DownLog, s *TagScript, interrupt func() error) (int64, error) {
	if !Scriptable(h.cfg) {
		return 0, fmt.Errorf("memsys: level configuration cannot play a tag script")
	}
	lvl := h.down[0]
	if s.cfg != lvl.cfg.Cache {
		return 0, fmt.Errorf("memsys: tag script recorded on another %s configuration", lvl.cfg.Cache.Name)
	}
	t := &tagTape{ops: s.ops, victims: s.victims, play: true}
	lvl.tags = t
	defer func() { lvl.tags = nil }()
	poll := func() error {
		if t.diverged {
			return ErrTagDiverged
		}
		if interrupt != nil {
			return interrupt()
		}
		return nil
	}
	timeNS, err := h.ReplayDown(log, poll)
	if err != nil {
		return 0, err
	}
	if t.diverged || t.pos != len(s.ops) || t.flipOp != s.flipOp {
		return 0, ErrTagDiverged
	}
	lvl.played, lvl.playedStats = true, s.stats
	return timeNS, nil
}
