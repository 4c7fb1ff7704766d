package cache

import "fmt"

// IntegrityError reports a violated cache-state invariant: which structural
// property failed and where. Package memsys wraps it with the level name to
// form its InvariantError.
type IntegrityError struct {
	Property string // e.g. "duplicate-tag", "lru-order", "dirty-accounting"
	Detail   string
}

// Error formats the violation.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("cache integrity: %s: %s", e.Property, e.Detail)
}

// markDirty sets a line dirty, accounting the clean→dirty transition.
func (c *Cache) markDirty(l *line) {
	if !l.dirty {
		l.dirty = true
		c.dirtyMade++
	}
}

// DirtyCount returns the number of dirty lines currently resident.
func (c *Cache) DirtyCount() int {
	n := 0
	for _, page := range c.pages {
		for i := range page {
			if page[i].valid() && page[i].dirty {
				n++
			}
		}
	}
	return n
}

// CheckIntegrity walks the whole cache and verifies its structural
// invariants, returning the first violation as an *IntegrityError:
//
//   - no two valid lines in a set carry the same tag (a duplicate would make
//     hits nondeterministic and double-count capacity);
//   - replacement state is well-formed: every valid line's stamp is no
//     newer than the access clock, and stamps are distinct within a set
//     (the LRU stack and the FIFO fill order are strict orders because
//     each access ticks the clock exactly once);
//   - valid masks carry no bits beyond the configured sub-block count, and
//     a valid line has at least one resident sub-block;
//   - a write-through cache holds no dirty lines (it has nothing to write
//     back);
//   - dirty accounting balances: the resident dirty population equals
//     clean→dirty transitions minus dirty departures (writebacks,
//     invalidations, flushes), so no writeback was lost or duplicated.
//
// The walk is O(allocated pages); it is meant for the opt-in
// memsys.Config.CheckInvariants debugging mode, not for hot paths.
func (c *Cache) CheckIntegrity() error {
	maskLimit := uint64(1)
	if c.subBlocked {
		maskLimit = uint64(1) << c.cfg.SubBlocks()
	} else {
		maskLimit = 2 // only bit 0 may be set
	}
	for p, page := range c.pages {
		for off := 0; off < len(page); off += c.ways {
			si, set := p<<pageBits+off/c.ways, page[off:off+c.ways]
			for wi := range set {
				l := &set[wi]
				if !l.valid() {
					continue
				}
				if l.validMask >= maskLimit {
					return &IntegrityError{
						Property: "subblock-mask",
						Detail: fmt.Sprintf("%s set %d way %d: validMask %#x exceeds %d sub-blocks",
							c.cfg.Name, si, wi, l.validMask, c.cfg.SubBlocks()),
					}
				}
				if l.stamp > c.clock {
					return &IntegrityError{
						Property: "lru-order",
						Detail: fmt.Sprintf("%s set %d way %d: stamp %d newer than clock %d",
							c.cfg.Name, si, wi, l.stamp, c.clock),
					}
				}
				if c.cfg.Write == WriteThrough && l.dirty {
					return &IntegrityError{
						Property: "write-through-dirty",
						Detail: fmt.Sprintf("%s set %d way %d: dirty line in a write-through cache",
							c.cfg.Name, si, wi),
					}
				}
				for wj := wi + 1; wj < len(set); wj++ {
					m := &set[wj]
					if !m.valid() {
						continue
					}
					if m.tag == l.tag {
						return &IntegrityError{
							Property: "duplicate-tag",
							Detail: fmt.Sprintf("%s set %d: ways %d and %d both hold tag %#x",
								c.cfg.Name, si, wi, wj, l.tag),
						}
					}
					if m.stamp == l.stamp {
						return &IntegrityError{
							Property: "lru-order",
							Detail: fmt.Sprintf("%s set %d: ways %d and %d share stamp %d",
								c.cfg.Name, si, wi, wj, l.stamp),
						}
					}
				}
			}
		}
	}
	if got, want := int64(c.DirtyCount()), c.dirtyMade-c.dirtyDropped; got != want {
		return &IntegrityError{
			Property: "dirty-accounting",
			Detail: fmt.Sprintf("%s: %d dirty lines resident, accounting says %d (made %d - dropped %d)",
				c.cfg.Name, got, want, c.dirtyMade, c.dirtyDropped),
		}
	}
	return nil
}
