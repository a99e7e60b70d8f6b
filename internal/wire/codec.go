package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// errBinaryCodec is the typed root of payload codec failures: a
// truncated or malformed encoding (framing treats it as corruption and
// poisons the connection), or a type missing from the catalogue in
// codec_types.go.
var errBinaryCodec = errors.New("wire: binary codec")

// ---------------------------------------------------------------------
// Pooled buffers.
//
// Frame and payload buffers recycle through size-classed sync.Pools.
// Ownership is explicit: whoever holds a buffer from getBuf must either
// hand it off (conn.send's queue hands encoded frames to writeLoop,
// which releases them after the socket write; the read loops hand
// payloads to whoever decodes them) or release it with putBuf. Buffers
// above maxPooledBuf (rare 32 MiB-class frames) are never pooled so a
// burst of huge blocks cannot pin memory.

var bufClasses = [...]int{4 << 10, 64 << 10, 1 << 20}

const maxPooledBuf = 2 << 20

var bufPools [len(bufClasses)]sync.Pool

// getBuf returns a zero-length buffer with capacity at least n.
func getBuf(n int) []byte {
	for i, size := range bufClasses {
		if n > size {
			continue
		}
		if v := bufPools[i].Get(); v != nil {
			stats.poolHits.Add(1)
			return (*v.(*[]byte))[:0]
		}
		stats.poolMisses.Add(1)
		return make([]byte, 0, size)
	}
	stats.poolMisses.Add(1)
	return make([]byte, 0, n)
}

// putBuf recycles a buffer into the class its capacity can serve.
// Accepts any slice (including nil and non-pooled ones); a buffer only
// enters a class if its capacity covers every getBuf of that class, so
// pooled buffers never regrow.
func putBuf(b []byte) {
	c := cap(b)
	if c < bufClasses[0] || c > maxPooledBuf {
		return
	}
	i := 0
	for i+1 < len(bufClasses) && c >= bufClasses[i+1] {
		i++
	}
	b = b[:0]
	bufPools[i].Put(&b)
}

// ---------------------------------------------------------------------
// Payload marshaling.

// marshalBody encodes an RPC body or frame envelope with the binary
// codec. A nil v encodes as an absent body; a type missing from the
// catalogue is an error wrapping errBinaryCodec. The buffer may be
// pooled; release it with putBuf when done.
func marshalBody(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	start := time.Now()
	data, ok := binMarshal(v)
	if !ok {
		return nil, fmt.Errorf("%w: no binary encoding for %T", errBinaryCodec, v)
	}
	observeEncode(start)
	return data, nil
}

// unmarshalBody decodes an RPC body or frame envelope.
func unmarshalBody(data []byte, v any) error {
	start := time.Now()
	defer observeDecode(start)
	ok, err := binUnmarshal(data, v)
	if !ok {
		return fmt.Errorf("%w: no binary decoding for %T", errBinaryCodec, v)
	}
	return err
}

// ---------------------------------------------------------------------
// Binary primitives.
//
// The binary encoding is positional: each type writes its fields in a
// fixed order with no field names or tags. Integers are varints
// (unsigned LEB128; signed values zigzag). Strings are length-prefixed.
// Byte slices and collections use a nil-aware length: 0 encodes nil,
// n+1 encodes n elements — the same null-vs-[] distinction
// encoding/json draws, so a struct round-trips to exactly the struct
// its JSON form would. Pointers carry a one-byte presence marker.

func appendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func appendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendByteSlice writes a nil-aware byte slice.
func appendByteSlice(b, s []byte) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = appendUvarint(b, uint64(len(s))+1)
	return append(b, s...)
}

// appendCount writes a nil-aware element count (0 = nil collection).
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return appendUvarint(b, uint64(n)+1)
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendCount(b, len(ss), ss == nil)
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendByteMap writes a map[string][]byte with keys in sorted order,
// so equal maps always encode to equal bytes.
func appendByteMap(b []byte, m map[string][]byte) []byte {
	b = appendCount(b, len(m), m == nil)
	if len(m) == 0 {
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = appendByteSlice(b, m[k])
	}
	return b
}

// binReader decodes the positional binary format with a sticky error:
// after the first failure every read returns a zero value, so decoders
// read straight through and check err once. All lengths are
// bounds-checked against the remaining input before any allocation, so
// corrupt (or fuzzed) input cannot force an oversized allocation.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated or invalid %s at offset %d", errBinaryCodec, what, r.off)
	}
}

// setErr records a nested decode failure (e.g. a transaction that fails
// to parse) as the sticky error.
func (r *binReader) setErr(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %v", errBinaryCodec, err)
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < 1 {
		r.fail("bool")
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail("bool")
		return false
	}
	return v == 1
}

// take returns the next n raw bytes (aliasing the input).
func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("length")
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining()) {
		r.fail("string")
		return ""
	}
	return string(r.take(int(n)))
}

// byteSlice reads a nil-aware byte slice, copying out of the input so
// the frame buffer can be released after decoding.
func (r *binReader) byteSlice() []byte {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	n--
	if n > uint64(r.remaining()) {
		r.fail("bytes")
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

// byteSliceAlias reads a nil-aware byte slice without copying; only the
// envelope Body fields use it (their lifetime is managed explicitly).
func (r *binReader) byteSliceAlias() []byte {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	n--
	if n > uint64(r.remaining()) {
		r.fail("bytes")
		return nil
	}
	return r.take(int(n))
}

// count reads a nil-aware element count. The count is sanity-bounded by
// the remaining input (every element costs at least one byte), so a
// corrupt count cannot pre-allocate an arbitrary slice. Returns -1 for
// a nil collection.
func (r *binReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return -1
	}
	if n == 0 {
		return -1
	}
	n--
	if n > uint64(r.remaining()) {
		r.fail("count")
		return -1
	}
	return int(n)
}

func (r *binReader) strings() []string {
	n := r.count()
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *binReader) byteMap() map[string][]byte {
	n := r.count()
	if n < 0 || r.err != nil {
		return nil
	}
	out := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.byteSlice()
		if r.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

// done finishes a decode: any sticky error, or trailing garbage, fails
// it — like framing, the binary encoding is canonical.
func (r *binReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", errBinaryCodec, len(r.b)-r.off)
	}
	return nil
}
