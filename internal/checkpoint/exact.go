package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// An exact decoder reads the bytes json.Marshal writes for a value of one
// type without encoding/json: a tree of decode functions compiled once per
// reflect.Type. It accepts only that exact shape, so that whenever it
// accepts an input, json.Unmarshal accepts it too with an equal value, and
// json.Marshal of that value gives back the input byte for byte:
//
//   - structs whose fields are all exported, untagged and not embedded,
//     each written as "Name":value in declaration order;
//   - int and uint kinds as a decimal without fraction, exponent, leading
//     zero or "-0", in range for the type;
//   - float64 as a JSON number that strconv.ParseFloat reads and
//     json.Marshal would write back unchanged;
//   - strings of printable ASCII without '\', '<', '>' or '&', the bytes
//     json.Marshal escapes;
//   - pointers, slices and maps as null (nil) or their value; "[]" is an
//     empty non-nil slice and "{}" an empty non-nil map;
//   - arrays of exactly their length;
//   - maps whose keys are of an int or uint kind, written as quoted
//     decimals in the ascending string order json.Marshal sorts them in.
//
// The input holds no whitespace and is consumed whole. Every other type is
// declined when compiled: one implementing json.Marshaler,
// json.Unmarshaler, encoding.TextMarshaler or encoding.TextUnmarshaler
// (itself or through its pointer), json.Number, bool, float32, complex,
// interface, []byte-like, string-keyed and recursive types, and structs
// with a tag, an unexported or an embedded field. Any input outside the
// shape is declined when read, and the caller decodes it with
// json.Unmarshal instead.

// decodeFunc decodes one value of its compiled type from d into v, which
// it sets whole, and reports whether the input had the exact shape.
type decodeFunc func(d *decodeState, v reflect.Value) bool

// decodeState is the input of one exact decode and the offset read so far.
type decodeState struct {
	b []byte
	i int
}

// maxTypeDepth bounds how deeply compiled types may nest, so that an
// accepted input never approaches json.Unmarshal's nesting limit.
const maxTypeDepth = 64

var (
	exactDecoders sync.Map // reflect.Type → decodeFunc, nil when declined

	jsonMarshaler   = reflect.TypeFor[json.Marshaler]()
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textMarshaler   = reflect.TypeFor[encoding.TextMarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
	jsonNumber      = reflect.TypeFor[json.Number]()
)

// exactFor returns t's exact decoder, compiled on first use, or nil if t
// is declined.
func exactFor(t reflect.Type) decodeFunc {
	if f, ok := exactDecoders.Load(t); ok {
		return f.(decodeFunc)
	}
	f := compile(t, map[reflect.Type]bool{})
	exactDecoders.Store(t, f)
	return f
}

// decodeExact decodes data into v with dec and reports whether data was
// exactly one value of dec's type. On false, v holds a partial value.
func decodeExact(dec decodeFunc, data []byte, v reflect.Value) bool {
	d := decodeState{b: data}
	return dec(&d, v) && d.i == len(data)
}

// compile builds t's decoder, or returns nil if t or a type inside it is
// declined. path holds the types being compiled around t.
func compile(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	if path[t] || len(path) >= maxTypeDepth || t == jsonNumber || customJSON(t) {
		return nil
	}
	path[t] = true
	defer delete(path, t)
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := t.Bits()
		return func(d *decodeState, v reflect.Value) bool {
			n, ok := d.signed(bits)
			v.SetInt(n)
			return ok
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		limit := uint64(math.MaxUint64) >> (64 - t.Bits())
		return func(d *decodeState, v reflect.Value) bool {
			n, ok := d.unsigned(limit)
			v.SetUint(n)
			return ok
		}
	case reflect.Float64:
		return func(d *decodeState, v reflect.Value) bool {
			f, ok := d.float()
			v.SetFloat(f)
			return ok
		}
	case reflect.String:
		return func(d *decodeState, v reflect.Value) bool {
			s, ok := d.str()
			v.SetString(s)
			return ok
		}
	case reflect.Pointer:
		return compilePointer(t, path)
	case reflect.Slice:
		return compileSlice(t, path)
	case reflect.Array:
		return compileArray(t, path)
	case reflect.Map:
		return compileMap(t, path)
	case reflect.Struct:
		return compileStruct(t, path)
	}
	return nil
}

// customJSON reports whether t or *t brings its own JSON or text form.
func customJSON(t reflect.Type) bool {
	for _, u := range []reflect.Type{t, reflect.PointerTo(t)} {
		if u.Implements(jsonMarshaler) || u.Implements(jsonUnmarshaler) ||
			u.Implements(textMarshaler) || u.Implements(textUnmarshaler) {
			return true
		}
	}
	return false
}

func compilePointer(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	elem := compile(t.Elem(), path)
	if elem == nil {
		return nil
	}
	return func(d *decodeState, v reflect.Value) bool {
		if d.lit("null") {
			v.SetZero()
			return true
		}
		p := reflect.New(t.Elem())
		v.Set(p)
		return elem(d, p.Elem())
	}
}

func compileSlice(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	if t.Elem().Kind() == reflect.Uint8 {
		return nil // json.Marshal writes base64
	}
	elem := compile(t.Elem(), path)
	if elem == nil {
		return nil
	}
	return func(d *decodeState, v reflect.Value) bool {
		if d.lit("null") {
			v.SetZero()
			return true
		}
		if !d.lit("[") {
			return false
		}
		v.Set(reflect.MakeSlice(t, 0, 0))
		if d.lit("]") {
			return true
		}
		for n := 0; ; n++ {
			v.Grow(1)
			v.SetLen(n + 1)
			if !elem(d, v.Index(n)) {
				return false
			}
			if d.lit("]") {
				return true
			}
			if !d.lit(",") {
				return false
			}
		}
	}
}

func compileArray(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	elem := compile(t.Elem(), path)
	if elem == nil {
		return nil
	}
	n := t.Len()
	return func(d *decodeState, v reflect.Value) bool {
		if !d.lit("[") {
			return false
		}
		for i := 0; i < n; i++ {
			if i > 0 && !d.lit(",") || !elem(d, v.Index(i)) {
				return false
			}
		}
		return d.lit("]")
	}
}

func compileMap(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	switch t.Key().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	default:
		return nil
	}
	key, elem := compile(t.Key(), path), compile(t.Elem(), path)
	if key == nil || elem == nil {
		return nil
	}
	return func(d *decodeState, v reflect.Value) bool {
		if d.lit("null") {
			v.SetZero()
			return true
		}
		if !d.lit("{") {
			return false
		}
		m := reflect.MakeMap(t)
		v.Set(m)
		if d.lit("}") {
			return true
		}
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		var prev []byte
		for {
			if !d.lit(`"`) {
				return false
			}
			start := d.i
			if !key(d, k) {
				return false
			}
			name := d.b[start:d.i]
			if prev != nil && bytes.Compare(prev, name) >= 0 || !d.lit(`":`) || !elem(d, e) {
				return false
			}
			prev = name
			m.SetMapIndex(k, e)
			if d.lit("}") {
				return true
			}
			if !d.lit(",") {
				return false
			}
		}
	}
}

// field is one struct field's place and decoder, with the bytes that
// precede its value: `{"Name":` for the first field, `,"Name":` after.
type field struct {
	index int
	name  string
	dec   decodeFunc
}

func compileStruct(t reflect.Type, path map[reflect.Type]bool) decodeFunc {
	fields := make([]field, t.NumField())
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() || f.Anonymous || f.Tag != "" {
			return nil
		}
		dec := compile(f.Type, path)
		if dec == nil {
			return nil
		}
		name, err := json.Marshal(f.Name)
		if err != nil {
			return nil
		}
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fields[i] = field{i, sep + string(name) + ":", dec}
	}
	if len(fields) == 0 {
		return func(d *decodeState, v reflect.Value) bool { return d.lit("{}") }
	}
	return func(d *decodeState, v reflect.Value) bool {
		for _, f := range fields {
			if !d.lit(f.name) || !f.dec(d, v.Field(f.index)) {
				return false
			}
		}
		return d.lit("}")
	}
}

// lit consumes s if the input continues with it.
func (d *decodeState) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// unsigned reads a decimal without sign, fraction, exponent or leading
// zero that is at most limit.
func (d *decodeState) unsigned(limit uint64) (uint64, bool) {
	b, i := d.b, d.i
	if i == len(b) || !isDigit(b[i]) || b[i] == '0' && i+1 < len(b) && isDigit(b[i+1]) {
		return 0, false
	}
	var n uint64
	for ; i < len(b) && isDigit(b[i]); i++ {
		c := uint64(b[i] - '0')
		if n > (limit-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	d.i = i
	return n, true
}

// signed reads a decimal as unsigned does, with an optional '-', that
// fits a signed integer of the given bits; "-0" is not one json.Marshal
// writes.
func (d *decodeState) signed(bits int) (int64, bool) {
	neg := d.lit("-")
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	n, ok := d.unsigned(limit)
	if !ok || neg && n == 0 {
		return 0, false
	}
	if neg {
		return int64(-n), true
	}
	return int64(n), true
}

// float reads a JSON number that json.Marshal writes for the float64 it
// denotes.
func (d *decodeState) float() (float64, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = skipDigits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = skipDigits(b, i)
	}
	num := b[d.i:i]
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, false
	}
	var buf [32]byte
	if !bytes.Equal(appendFloat(buf[:0], f), num) {
		return 0, false
	}
	d.i = i
	return f, true
}

// appendFloat appends f as json.Marshal writes a float64: like %g, but in
// 'e' form only below 1e-6 or from 1e21, with the exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// str reads a string of printable ASCII that json.Marshal writes as is.
func (d *decodeState) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	b := d.b
	for i := d.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := string(b[d.i:i])
			d.i = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\' || c == '<' || c == '>' || c == '&':
			return "", false
		}
	}
	return "", false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}
