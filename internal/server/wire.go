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

// UnmarshalJSON keeps a copy of the plan's bytes without decoding them;
// json.Unmarshal has already checked their syntax.
func (p *planJSON) UnmarshalJSON(b []byte) error {
	p.raw = bytes.Clone(b)
	return nil
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
