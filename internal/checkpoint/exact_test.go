package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mlcache/internal/cpu"
	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/synth"
)

// sample is an untagged record type with a field of every kind the exact
// decoder reads.
type sample struct {
	Int   int
	I8    int8
	I16   int16
	I32   int32
	I64   int64
	Uint  uint
	U8    uint8
	U16   uint16
	U32   uint32
	U64   uint64
	UP    uintptr
	F     float64
	S     string
	P     *int32
	PP    **leaf
	List  []leaf
	Lists [][]int8
	Arr   [2]uint16
	None  [0]int
	ByPID map[uint16]leaf
	ByNeg map[int8]*int64
	Empty struct{}
}

type leaf struct {
	X int64
	Y float64
	Z string
}

// samples returns samples at the edges of every field's range: zero
// values, nil and empty pointers, slices and maps, extreme integers, and
// floats in both of json.Marshal's notations.
func samples() []sample {
	i32, i64 := int32(-7), int64(math.MinInt64)
	l := &leaf{X: 1, Y: 0.5, Z: "z"}
	return []sample{
		{},
		{
			Int: -1, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MaxInt64,
			Uint: 1, U8: math.MaxUint8, U16: 10, U32: math.MaxUint32, U64: math.MaxUint64, UP: 3,
			F: 1e21, S: "L2 (direct-mapped) {x}", P: &i32, PP: &l,
			List: []leaf{{X: -3, Y: -0.0, Z: ""}, {Y: 1e-7}}, Lists: [][]int8{nil, {}, {1, -2}},
			Arr: [2]uint16{1, 65535}, ByPID: map[uint16]leaf{0: {}, 2: {X: 2}, 10: {Y: 123456.789}},
			ByNeg: map[int8]*int64{-128: &i64, -2: nil, 5: new(int64)},
		},
		{
			F: 5e-324, List: []leaf{}, Lists: [][]int8{}, ByPID: map[uint16]leaf{},
			ByNeg: map[int8]*int64{}, PP: new(*leaf),
		},
		{F: math.MaxFloat64, S: " !#$%'()*+,-./~"},
		{F: -1.5e-6, I64: -1},
	}
}

// checkExact requires, if the exact decoder accepts data as a T, that
// json.Unmarshal accepts it too with a reflect.DeepEqual value, and that
// json.Marshal of that value gives back data byte for byte. It reports
// whether the decoder accepted data.
func checkExact[T any](t *testing.T, data []byte) bool {
	t.Helper()
	dec := exactFor(reflect.TypeFor[T]())
	if dec == nil {
		t.Fatalf("no exact decoder for %T", *new(T))
	}
	var got T
	if !decodeExact(dec, data, reflect.ValueOf(&got).Elem()) {
		return false
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("exact decoder accepted %q, json.Unmarshal: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exact decoder read %q as %+v, json.Unmarshal as %+v", data, got, want)
	}
	again, err := json.Marshal(got)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("exact decoder accepted %q, which marshals back as %q (%v)", data, again, err)
	}
	return true
}

// simulated is one cpu.Result of a shape the result journal holds.
type simulated struct {
	name string
	res  cpu.Result
}

// simulatedResults returns results of every machine shape the simulator
// produces: a full simulation of the split-L1 base machine over a
// multiprogrammed trace (PerPID, StallHist), the one-pass planner's
// replayed points, a unified L1, a TLB and a three-level hierarchy.
var simulatedResults = sync.OnceValues(func() ([]simulated, error) {
	arena, err := synth.PaperArena(1, 20000)
	if err != nil {
		return nil, err
	}
	cpuCfg := cpu.Config{CycleNS: experiments.CPUCycleNS, WarmupRefs: 4000}
	base := func() memsys.Config {
		return experiments.BaseMachine(4, experiments.L2Config(64<<10, 30, 1), mainmem.Base())
	}
	unified := base()
	unified.SplitL1, unified.L1 = false, unified.L1D
	unified.L1.Cache.Name = "L1"
	unified.L1I, unified.L1D = memsys.LevelConfig{}, memsys.LevelConfig{}
	tlb := base()
	tlb.TLB = memsys.TLBConfig{Entries: 16}
	three := base()
	l3 := experiments.L2Config(1<<20, 60, 2)
	l3.Cache.Name, l3.Cache.BlockBytes = "L3", 64
	three.Down = append(three.Down, l3)

	var out []simulated
	for _, m := range []struct {
		name string
		cfg  memsys.Config
	}{{"full", base()}, {"unified L1", unified}, {"TLB", tlb}, {"three levels", three}} {
		h, err := memsys.New(m.cfg)
		if err != nil {
			return nil, err
		}
		res, err := cpu.Run(h, arena.Cursor(), cpuCfg)
		if err != nil {
			return nil, err
		}
		out = append(out, simulated{m.name, res})
	}
	pts := []sweep.Point{{L2SizeBytes: 16 << 10, L2CycleNS: 20, L2Assoc: 1}, {L2SizeBytes: 64 << 10, L2CycleNS: 30, L2Assoc: 1}, {L2SizeBytes: 256 << 10, L2CycleNS: 50, L2Assoc: 1}}
	grid, err := sweep.Runner{
		Configure: func(pt sweep.Point) memsys.Config {
			return experiments.BaseMachine(4, experiments.L2Config(pt.L2SizeBytes, pt.L2CycleNS, pt.L2Assoc), mainmem.Base())
		},
		Arena: arena,
		CPU:   cpuCfg,
	}.RunPoints(pts)
	if err != nil {
		return nil, err
	}
	for _, r := range grid {
		out = append(out, simulated{"one-pass " + r.Point.String(), r.Run})
	}
	return out, nil
})

// TestExactDecodesSimulatedResults: every result shape the simulator
// produces takes the exact decoder's path, alone and through LoadAs, and
// reads back equal. A cpu.Result field of a kind the decoder does not
// read fails here instead of sending every replayed record to
// json.Unmarshal.
func TestExactDecodesSimulatedResults(t *testing.T) {
	results, err := simulatedResults()
	if err != nil {
		t.Fatal(err)
	}
	full, unified, tlb, three := results[0].res, results[1].res, results[2].res, results[3].res
	switch {
	case len(full.PerPID) < 2 || full.StallHist == [16]int64{} || full.Mem.L1I == nil:
		t.Fatalf("precondition: full simulation has %d processes, stall histogram %v", len(full.PerPID), full.StallHist)
	case unified.Mem.L1 == nil || unified.Mem.L1I != nil:
		t.Fatal("precondition: unified L1 run reports split levels")
	case tlb.Mem.TLB == nil:
		t.Fatal("precondition: TLB run reports no TLB")
	case len(three.Mem.Down) != 2:
		t.Fatalf("precondition: three-level run has %d levels below L1", len(three.Mem.Down))
	}
	dec := exactFor(reflect.TypeFor[cpu.Result]())
	if dec == nil {
		t.Fatal("cpu.Result has no exact decoder")
	}
	path := filepath.Join(t.TempDir(), "results.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		data, err := json.Marshal(r.res)
		if err != nil {
			t.Fatal(err)
		}
		if !checkExact[cpu.Result](t, data) {
			t.Errorf("%s: the exact decoder declines its marshaled result", r.name)
		}
		var got cpu.Result
		if decodeExact(dec, data, reflect.ValueOf(&got).Elem()) && !reflect.DeepEqual(got, r.res) {
			t.Errorf("%s: read back as %+v, want %+v", r.name, got, r.res)
		}
		if err := j.Append(r.name, r.res); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	typed, err := LoadAs[cpu.Result](path)
	if err != nil || typed.Dropped != 0 || len(typed.Records) != len(results) {
		t.Fatalf("LoadAs: %d records, %d dropped, %v; want %d, 0, nil", len(typed.Records), typed.Dropped, err, len(results))
	}
	for i, d := range typed.Records {
		if d.Key != results[i].name || d.Err != nil || !reflect.DeepEqual(d.Value, results[i].res) {
			t.Errorf("LoadAs record %d: %q %v, want %q equal to the simulated result", i, d.Key, d.Err, results[i].name)
		}
	}
}

// TestExactDeclines: the decoder reads what json.Marshal writes and
// declines every other spelling of the same value, each a way a decoder
// could go wrong: accept leading zeros, a fraction for an int, trailing
// bytes, escapes or HTML-escaped bytes in strings, short or long arrays,
// out-of-order fields or map keys. Each input also meets checkExact, and
// "[]" and "{}" must read as empty non-nil values, "null" as nil.
func TestExactDeclines(t *testing.T) {
	valid, err := json.Marshal(samples()[1])
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(valid, []byte(old)) {
			t.Fatalf("precondition: %q not in %s", old, valid)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"leading zero", edit(`"Uint":1,`, `"Uint":01,`)},
		{"leading zero in a map key", edit(`"10":`, `"010":`)},
		{"leading zero in a negative", edit(`"Int":-1,`, `"Int":-01,`)},
		{"minus zero int", edit(`"Int":-1,`, `"Int":-0,`)},
		{"fraction for an int", edit(`"Uint":1,`, `"Uint":1.0,`)},
		{"exponent for an int", edit(`"Uint":1,`, `"Uint":1e0,`)},
		{"int out of range", edit(`"I8":-128,`, `"I8":-129,`)},
		{"uint out of range", edit(`"U8":255,`, `"U8":256,`)},
		{"uint64 past 2^64", edit(`"U64":18446744073709551615,`, `"U64":18446744073709551616,`)},
		{"sign on a uint", edit(`"Uint":1,`, `"Uint":-1,`)},
		{"plus sign", edit(`"Uint":1,`, `"Uint":+1,`)},
		{"trailing space", append(bytes.Clone(valid), ' ')},
		{"trailing value", append(bytes.Clone(valid), "{}"...)},
		{"leading space", append([]byte{' '}, valid...)},
		{"space after a colon", edit(`"Uint":1,`, `"Uint": 1,`)},
		{"escaped quote", edit(`"S":"L2`, `"S":"\"L2`)},
		{"escaped letter", edit(`"S":"L2`, `"S":"\u004c2`)},
		{"raw <", edit(`"Z":"z"`, `"Z":"<"`)},
		{"raw &", edit(`"Z":"z"`, `"Z":"&"`)},
		{"non-ASCII", edit(`"Z":"z"`, `"Z":"é"`)},
		{"control byte", edit(`"Z":"z"`, "\"Z\":\"\t\"")},
		{"unterminated string", []byte(`{"Int":0,"I8":0,"I16":0,"I32":0,"I64":0,"Uint":0,"U8":0,"U16":0,"U32":0,"U64":0,"UP":0,"F":0,"S":"`)},
		{"short array", edit(`"Arr":[1,65535]`, `"Arr":[1]`)},
		{"long array", edit(`"Arr":[1,65535]`, `"Arr":[1,65535,0]`)},
		{"null array", edit(`"Arr":[1,65535]`, `"Arr":null`)},
		{"null struct", edit(`"Empty":{}`, `"Empty":null`)},
		{"missing field", edit(`"UP":3,`, ``)},
		{"fields out of order", edit(`"U8":255,"U16":10,`, `"U16":10,"U8":255,`)},
		{"field name in another case", edit(`"Uint":1,`, `"uint":1,`)},
		{"unknown field", edit(`"Empty":{}`, `"Empty":{},"Extra":1`)},
		{"map keys out of order", edit(`"0":{"X":0,"Y":0,"Z":""},"10"`, `"10":{"X":0,"Y":0,"Z":""},"0"`)},
		{"duplicate map key", edit(`"10":`, `"2":`)},
		{"unquoted map key", edit(`"10":`, `10:`)},
		{"float with a trailing zero", edit(`"Y":0.5`, `"Y":0.50`)},
		{"float in e form", edit(`"Y":0.5`, `"Y":5e-1`)},
		{"float with a plus exponent", edit(`"F":1e+21`, `"F":1e21`)},
		{"float capital E", edit(`"F":1e+21`, `"F":1E+21`)},
		{"float without its fraction digits", edit(`"Y":0.5`, `"Y":0.`)},
		{"float with a leading dot", edit(`"Y":0.5`, `"Y":.5`)},
		{"float overflow", edit(`"F":1e+21`, `"F":1e+400`)},
		{"float as a string", edit(`"Y":0.5`, `"Y":"0.5"`)},
		{"true for an int", edit(`"Uint":1,`, `"Uint":true,`)},
		{"truncated", valid[:len(valid)-1]},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if checkExact[sample](t, tc.data) {
				t.Errorf("exact decoder accepted %s", tc.data)
			}
		})
	}
	for _, s := range samples() {
		data, _ := json.Marshal(s)
		if !checkExact[sample](t, data) {
			t.Errorf("exact decoder declined %s", data)
		}
	}
	empty, _ := json.Marshal(samples()[2])
	var got sample
	if !decodeExact(exactFor(reflect.TypeFor[sample]()), empty, reflect.ValueOf(&got).Elem()) {
		t.Fatalf("exact decoder declined %s", empty)
	}
	if got.List == nil || got.Lists == nil || got.ByPID == nil || got.ByNeg == nil || got.PP != nil || got.P != nil {
		t.Errorf("%s read as %+v: want empty non-nil slices and maps, and nil where null", empty, got)
	}
}

// TestExactCompileDeclines: types whose JSON form is not the plain
// reflection of their fields get no exact decoder, so their records take
// json.Unmarshal.
func TestExactCompileDeclines(t *testing.T) {
	type tagged struct {
		N int `json:"n"`
	}
	type unexported struct {
		N int
		n int
	}
	type embedded struct {
		leaf
	}
	type recursive struct {
		Next *recursive
	}
	type withBool struct{ B bool }
	type withFloat32 struct{ F float32 }
	type withAny struct{ V any }
	type withBytes struct{ B []byte }
	type withStringKeys struct{ M map[string]int }
	type withRaw struct{ R json.RawMessage }
	type withNumber struct{ N json.Number }
	type withText struct{ K map[textKey]int }
	for _, typ := range []reflect.Type{
		reflect.TypeFor[tagged](), reflect.TypeFor[unexported](), reflect.TypeFor[embedded](),
		reflect.TypeFor[recursive](), reflect.TypeFor[withBool](), reflect.TypeFor[withFloat32](),
		reflect.TypeFor[withAny](), reflect.TypeFor[withBytes](), reflect.TypeFor[withStringKeys](),
		reflect.TypeFor[withRaw](), reflect.TypeFor[withNumber](), reflect.TypeFor[withText](),
		reflect.TypeFor[payload](), reflect.TypeFor[record](), reflect.TypeFor[strings.Builder](),
	} {
		if exactFor(typ) != nil {
			t.Errorf("%v has an exact decoder", typ)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[sample](), reflect.TypeFor[cpu.Result](), reflect.TypeFor[[3]leaf]()} {
		if exactFor(typ) == nil {
			t.Errorf("%v has no exact decoder", typ)
		}
	}
}

// textKey is an integer map key with a text form, which json.Marshal
// writes instead of its decimal.
type textKey int

func (k textKey) MarshalText() ([]byte, error) { return []byte("k"), nil }

// FuzzExactDecode: whenever the exact decoder accepts an input, as a
// cpu.Result (even kinds) or a sample (odd kinds), json.Unmarshal accepts
// it too with a reflect.DeepEqual value, and json.Marshal of that value
// gives back the input byte for byte. The seeds are the marshaled results
// of TestExactDecodesSimulatedResults and the marshaled samples, which
// the fuzzer mutates.
func FuzzExactDecode(f *testing.F) {
	results, err := simulatedResults()
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range results {
		data, _ := json.Marshal(r.res)
		f.Add(uint8(0), data)
	}
	for _, s := range samples() {
		data, _ := json.Marshal(s)
		f.Add(uint8(1), data)
	}
	f.Add(uint8(1), []byte(`{"Int":00}`))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		if kind%2 == 0 {
			checkExact[cpu.Result](t, data)
		} else {
			checkExact[sample](t, data)
		}
	})
}
