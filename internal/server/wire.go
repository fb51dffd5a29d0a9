package server

// A plan is its bytes. Every plan this server holds is its canonical JSON,
// the bytes json.Marshal(mapping.Plan) gives, produced once: a computed,
// repaired or fallback plan is written by mapping.AppendJSON, whose tests
// hold it to json.Marshal byte for byte, and a peer-filled plan is
// re-encoded with json.Marshal once the fill check has decoded it. Every
// answer — /v1/map bodies, batch results, degraded answers, peer-fill
// bodies and plan-log records — splices those bytes in verbatim, and a
// plan is decoded only where it is used as data. See DESIGN.md §13–14.

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// planJSON is one plan as its canonical JSON. Every copy of a cache entry
// shares the pointer, so the plan is decoded at most once per entry.
type planJSON struct {
	raw  []byte
	once sync.Once
	plan mapping.Plan
	err  error
}

// planBufPool holds the buffers plans are written into. A plan keeps an
// exact-length copy, because its bytes live on in the memory tier, the
// stale tier and the write-behind queue, where the slack of a grown
// buffer would be memory held for nothing.
var planBufPool = sync.Pool{New: func() any { return new([]byte) }}

// newPlanJSON writes a freshly produced plan, the one encode it gets.
func newPlanJSON(r *pipeline.Result) *planJSON {
	bp := planBufPool.Get().(*[]byte)
	buf := mapping.AppendJSON((*bp)[:0], r)
	p := &planJSON{raw: bytes.Clone(buf)}
	if cap(buf) <= jsonBufMaxRetain {
		*bp = buf
		planBufPool.Put(bp)
	}
	return p
}

// decode returns the plan as data, decoding it on first use.
func (p *planJSON) decode() (mapping.Plan, error) {
	p.once.Do(func() { p.err = json.Unmarshal(p.raw, &p.plan) })
	return p.plan, p.err
}

// splicedBody is a response body that carries plan bytes and renders
// itself through splice rather than through the encoder whole.
type splicedBody interface {
	render(dst *bytes.Buffer) error
}

// emptyMembers are the renderings of an empty leading member that splice
// fills: a nil pointer or slice, or a zero mapping.Plan.
var emptyMembers = [][]byte{[]byte("null"), func() []byte {
	b, _ := json.Marshal(mapping.Plan{})
	return b
}()}

// splice writes v to dst exactly as json.Encoder renders it — HTML-escaped
// and newline-terminated — except that the value of v's first member,
// which v leaves empty, is what fill writes. It is the only place a plan's
// bytes join a body: encoding/json would re-compact them byte by byte,
// which costs more than encoding the plan afresh.
func splice(dst *bytes.Buffer, v any, fill func(*bytes.Buffer)) error {
	b := getJSONBuf()
	defer putJSONBuf(b)
	if err := b.enc.Encode(v); err != nil {
		return err
	}
	// out is `{"name":<empty>,...}`: the member name is a JSON tag, which
	// holds no colon.
	out := b.buf.Bytes()
	if head := bytes.IndexByte(out, ':') + 1; head > 0 {
		for _, empty := range emptyMembers {
			if rest, ok := bytes.CutPrefix(out[head:], empty); ok {
				dst.Write(out[:head])
				fill(dst)
				dst.Write(rest)
				return nil
			}
		}
	}
	return errors.New("splice: the leading member is not empty")
}

// render writes the /v1/map body: the plan bytes and the response fields.
func (m *MapResponse) render(dst *bytes.Buffer) error {
	return splice(dst, m, func(dst *bytes.Buffer) { dst.Write(m.raw.raw) })
}

// render writes the batch body, each result spliced like a /v1/map body.
// A result is either a response or an error, never both.
func (r *BatchMapResponse) render(dst *bytes.Buffer) error {
	rest := *r
	rest.Results = nil
	var err error
	serr := splice(dst, &rest, func(dst *bytes.Buffer) {
		dst.WriteByte('[')
		for i := range r.Results {
			if i > 0 {
				dst.WriteByte(',')
			}
			if res := &r.Results[i]; res.MapResponse != nil {
				err = res.MapResponse.render(dst)
			} else {
				err = json.NewEncoder(dst).Encode(res)
			}
			if err != nil {
				return
			}
			dst.Truncate(dst.Len() - 1) // the element's newline
		}
		dst.WriteByte(']')
	})
	return errors.Join(err, serr)
}

// render writes the peer-fill body.
func (f *fillResponse) render(dst *bytes.Buffer) error {
	return splice(dst, f, func(dst *bytes.Buffer) { dst.Write(f.raw.raw) })
}

// jsonMaxDepth is encoding/json's nesting limit: json.Valid rejects a value
// nested deeper.
const jsonMaxDepth = 10000

// jsonValueEnd returns the index just past the one JSON value that starts
// at b[i], after any whitespace, or -1 if no valid value starts there. It
// accepts exactly what json.Valid accepts of a value: the RFC 8259 grammar
// with its four whitespace bytes, no UTF-8 check inside strings (json.Valid
// accepts "\xff"), and nesting to encoding/json's 10,000 levels. It reads
// each byte once and allocates nothing: an open container's kind is one
// bit of a fixed stack. FuzzJSONValueEnd holds it to json.Valid.
func jsonValueEnd(b []byte, i int) int {
	var objects [(jsonMaxDepth + 63) / 64]uint64 // bit d set: level d is an object
	depth, inObject := uint(0), false            // inObject: the innermost open level is an object
value:
	for {
		// A value starts at b[i], after whitespace.
		if i = jsonSpaceEnd(b, i); i == len(b) {
			return -1
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == jsonMaxDepth {
				return -1
			}
			if inObject = c == '{'; inObject {
				objects[depth/64] |= 1 << (depth % 64)
			} else {
				objects[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			if i = jsonSpaceEnd(b, i+1); i < len(b) && b[i] == c+2 {
				break // '}' or ']' closes an empty container below
			}
			if inObject {
				if i = jsonKeyEnd(b, i); i < 0 {
					return -1
				}
			}
			continue
		case '"':
			i = jsonStringEnd(b, i)
		case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			i = jsonNumberEnd(b, i)
		case 't':
			i = jsonLiteralEnd(b, i, "true")
		case 'f':
			i = jsonLiteralEnd(b, i, "false")
		case 'n':
			i = jsonLiteralEnd(b, i, "null")
		default:
			return -1
		}
		if i < 0 {
			return -1
		}
		// A value ends at i: close the containers it completes, up to the
		// next member or element.
		for depth > 0 {
			if i = jsonSpaceEnd(b, i); i == len(b) {
				return -1
			}
			switch c := b[i]; {
			case c == ',':
				i++
				if inObject {
					if i = jsonKeyEnd(b, i); i < 0 {
						return -1
					}
				}
				continue value
			case inObject && c != '}' || !inObject && c != ']':
				return -1
			}
			depth--
			inObject = depth > 0 && objects[(depth-1)/64]&(1<<((depth-1)%64)) != 0
			i++
		}
		return i
	}
}

// jsonSpaceEnd returns the index of the first byte at or after b[i] that
// is not JSON whitespace.
func jsonSpaceEnd(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// jsonKeyEnd returns the index just past the colon of an object member's
// name that starts at b[i], after whitespace, or -1.
func jsonKeyEnd(b []byte, i int) int {
	if i = jsonSpaceEnd(b, i); i == len(b) || b[i] != '"' {
		return -1
	}
	if i = jsonStringEnd(b, i); i < 0 {
		return -1
	}
	if i = jsonSpaceEnd(b, i); i == len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// jsonStringEnd returns the index just past the string whose opening quote
// is b[i], or -1.
func jsonStringEnd(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// jsonNumberEnd returns the index just past the number that starts at b[i]
// ('-' or a digit), or -1.
func jsonNumberEnd(b []byte, i int) int {
	if b[i] == '-' {
		if i++; i == len(b) {
			return -1
		}
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = jsonDigitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := jsonDigitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := jsonDigitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// jsonDigitsEnd returns the index of the first byte at or after b[i] that
// is not a decimal digit.
func jsonDigitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// jsonLiteralEnd returns the index just past lit if b holds it at i, or -1.
func jsonLiteralEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}
