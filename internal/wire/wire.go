// Package wire implements the binary encoding used to account communication
// bits. The paper measures "the total number of bits sent by all processes
// in point-to-point messages"; rather than estimating message sizes, every
// payload in this codebase is actually serialized with this package, and its
// cost is eight times the encoded byte length.
//
// The format is deliberately simple: unsigned varints (LEB128, as in
// encoding/binary), zigzag-mapped signed varints, length-prefixed byte
// strings, and booleans as single bytes. It is self-contained so that the
// accounting never depends on reflection-based encoders with unpredictable
// overheads.
package wire

import (
	"errors"
	"fmt"
	"sync"
)

// ErrTruncated is returned by Decoder methods when the buffer ends before
// the requested value.
var ErrTruncated = errors.New("wire: truncated buffer")

// ErrOverflow is returned when a varint does not terminate within 10 bytes.
var ErrOverflow = errors.New("wire: varint overflows 64 bits")

// Marshaler is implemented by every protocol payload.
type Marshaler interface {
	// AppendWire appends the payload's encoding to buf and returns the
	// extended slice.
	AppendWire(buf []byte) []byte
}

// Encode serializes m into a fresh buffer.
func Encode(m Marshaler) []byte {
	return m.AppendWire(nil)
}

// bitLenScratch holds the buffers BitLen measures into. Every message sent
// in a simulation is measured, from every process goroutine, so the
// encoding goes into a reused buffer that keeps whatever capacity the
// largest payload grew it to.
var bitLenScratch = sync.Pool{New: func() any { return new([]byte) }}

// BitLen returns the size of m's encoding in bits. It encodes m with
// AppendWire — the single definition of every payload's format — and
// discards the bytes.
func BitLen(m Marshaler) int64 {
	bp := bitLenScratch.Get().(*[]byte)
	buf := m.AppendWire((*bp)[:0])
	*bp = buf
	bitLenScratch.Put(bp)
	return int64(len(buf)) * 8
}

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// AppendVarint appends v using zigzag mapping.
func AppendVarint(buf []byte, v int64) []byte {
	return AppendUvarint(buf, uint64(v)<<1^uint64(v>>63))
}

// AppendBool appends b as one byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(buf, b []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendUvarints appends a length-prefixed sequence of uvarints.
func AppendUvarints(buf []byte, vs []uint64) []byte {
	buf = AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = AppendUvarint(buf, v)
	}
	return buf
}

// Decoder reads values back out of a buffer produced with the Append
// functions. The first error sticks; check Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Err reports the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// Uvarint reads one LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if d.off >= len(d.buf) {
			d.err = ErrTruncated
			return 0
		}
		if i == 10 {
			d.err = ErrOverflow
			return 0
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

// Varint reads one zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one boolean byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.err = fmt.Errorf("wire: invalid bool byte %#x", b)
		return false
	}
	return b == 1
}

// Bytes reads one length-prefixed byte string.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Len()) {
		d.err = ErrTruncated
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// Uvarints reads one length-prefixed uvarint sequence.
func (d *Decoder) Uvarints() []uint64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Len()) { // each element takes at least one byte
		d.err = ErrTruncated
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Uvarint())
	}
	return out
}
