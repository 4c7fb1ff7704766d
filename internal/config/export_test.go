package config

import (
	"fmt"
	"io"

	"mlcache/internal/cache"
	"mlcache/internal/memsys"
)

// Write serializes a hierarchy configuration in the file format Parse
// reads. It is Parse's round-trip oracle: Parse(Write(cfg)) must
// reproduce cfg exactly.
func Write(w io.Writer, cfg memsys.Config) error {
	p := &printer{w: w}
	p.sectionf("cpu", "", func() {
		p.kv("cycle_ns", "%d", cfg.CPUCycleNS)
	})
	if cfg.SplitL1 {
		p.cacheSection(cfg.L1I, 1, "instruction")
		p.cacheSection(cfg.L1D, 1, "data")
	} else {
		p.cacheSection(cfg.L1, 1, "unified")
	}
	for i, lc := range cfg.Down {
		p.cacheSection(lc, i+2, "unified")
	}
	p.sectionf("memory", "", func() {
		p.kv("read_ns", "%d", cfg.Memory.ReadNS)
		p.kv("write_ns", "%d", cfg.Memory.WriteNS)
		p.kv("recovery_ns", "%d", cfg.Memory.RecoveryNS)
		if cfg.Memory.PageBytes > 0 {
			p.kv("page_bytes", "%d", cfg.Memory.PageBytes)
			p.kv("page_hit_ns", "%d", cfg.Memory.PageHitReadNS)
		}
	})
	if cfg.WBDepth != 0 || cfg.WBCoalesce {
		p.sectionf("buffers", "", func() {
			if cfg.WBDepth != 0 {
				p.kv("depth", "%d", cfg.WBDepth)
			}
			if cfg.WBCoalesce {
				p.kv("coalesce", "%s", "on")
			}
		})
	}
	if cfg.MemBusWidthBytes != 0 || cfg.MemBusCycleNS != 0 {
		p.sectionf("bus", "", func() {
			if cfg.MemBusWidthBytes != 0 {
				p.kv("width", "%d", cfg.MemBusWidthBytes)
			}
			if cfg.MemBusCycleNS != 0 {
				p.kv("cycle_ns", "%d", cfg.MemBusCycleNS)
			}
		})
	}
	return p.err
}

type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *printer) sectionf(kind, name string, body func()) {
	if name != "" {
		p.printf("%s %s {\n", kind, name)
	} else {
		p.printf("%s {\n", kind)
	}
	body()
	p.printf("}\n")
}

func (p *printer) kv(key, format string, args ...any) {
	p.printf("    %s = "+format+"\n", append([]any{key}, args...)...)
}

func (p *printer) cacheSection(lc memsys.LevelConfig, level int, role string) {
	name := lc.Cache.Name
	if name == "" {
		name = fmt.Sprintf("L%d", level)
	}
	p.sectionf("cache", name, func() {
		p.kv("level", "%d", level)
		p.kv("role", "%s", role)
		p.kv("size", "%d", lc.Cache.SizeBytes)
		p.kv("block", "%d", lc.Cache.BlockBytes)
		p.kv("assoc", "%d", lc.Cache.Assoc)
		p.kv("cycle_ns", "%d", lc.CycleNS)
		p.kv("repl", "%s", lc.Cache.Repl)
		if lc.Cache.Write == cache.WriteThrough {
			p.kv("write", "%s", "through")
		} else {
			p.kv("write", "%s", "back")
		}
		if lc.Cache.Alloc == cache.NoWriteAllocate {
			p.kv("alloc", "%s", "no-allocate")
		} else {
			p.kv("alloc", "%s", "allocate")
		}
		if lc.Cache.FetchBytes != 0 {
			p.kv("fetch", "%d", lc.Cache.FetchBytes)
		}
		if lc.WriteCycles != 0 {
			p.kv("write_cycles", "%d", lc.WriteCycles)
		}
		if lc.Prefetch {
			p.kv("prefetch", "%s", "on")
		}
	})
}
