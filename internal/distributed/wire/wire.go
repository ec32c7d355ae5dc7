package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the protocol version byte every payload starts with. See
// doc.go for the version history; v3 added the per-entry representative
// distances to MsgScan.
const Version = 3

// Message types.
const (
	MsgLoad      = 1
	MsgLoadOK    = 2
	MsgScan      = 3
	MsgScanReply = 4
	MsgErr       = 5
	MsgPing      = 6
	MsgPong      = 7
)

// MaxFrameBytes is the default receive limit. Shard loads carry whole
// segment payloads (gather vectors), so the limit is generous; scan
// traffic is orders of magnitude below it.
const MaxFrameBytes = 1 << 30

const frameHead = 8 // uint32 length + uint32 crc

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrCorrupt reports a frame whose CRC does not match its payload.
	ErrCorrupt = errors.New("wire: corrupt frame (CRC mismatch)")
	// ErrTooLarge reports a frame length beyond the receiver's limit.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadVersion reports an unknown protocol version byte.
	ErrBadVersion = errors.New("wire: unknown protocol version")
	// ErrTruncated reports a structurally short message body.
	ErrTruncated = errors.New("wire: truncated message body")
)

// RemoteError is a failure reported by the remote end via MsgErr. It is
// NOT retryable: the frame arrived intact, the shard just could not
// serve the request (e.g. no shard state loaded, dimension mismatch).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// NewFrame starts a frame for msgType: the returned buffer has the
// 8-byte header reserved and the version and type bytes appended. Body
// bytes are appended with the append* helpers; Finish seals the header.
func NewFrame(msgType byte) []byte {
	b := make([]byte, frameHead, 256)
	return append(b, Version, msgType)
}

// Finish writes the length and CRC into the reserved header and returns
// the wire-ready frame.
func Finish(frame []byte) []byte {
	payload := frame[frameHead:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame
}

// ReadFrame reads one frame from r, enforcing the max payload size and
// the CRC, and returns the message type and body (payload minus the
// version and type bytes).
func ReadFrame(r io.Reader, max int) (msgType byte, body []byte, err error) {
	var hdr [frameHead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if plen < 2 {
		return 0, nil, ErrCorrupt
	}
	if int64(plen) > int64(max) {
		return 0, nil, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, plen, max)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, ErrCorrupt
	}
	if payload[0] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, payload[0])
	}
	return payload[1], payload[2:], nil
}

// WriteFrame writes a finished frame to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// --- append helpers (encoding) ---

func appendU8(b []byte, v uint8) []byte { return append(b, v) }
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}
func appendF32s(b []byte, vs []float32) []byte {
	for _, v := range vs {
		b = appendU32(b, math.Float32bits(v))
	}
	return b
}
func appendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

// --- dec: bounds-checked cursor (decoding) ---

// dec walks a message body; the first out-of-bounds read latches err and
// every later read returns zero values, so decoders can be written as
// straight-line code with one error check at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.err = ErrTruncated
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// n returns a u32 validated as a sane element count for elemSize-byte
// elements: the remaining body must be able to hold it, which rejects
// absurd counts before any allocation.
func (d *dec) n(elemSize int) int {
	c := int(d.u32())
	if d.err == nil && c*elemSize > len(d.b)-d.off {
		d.err = ErrTruncated
		return 0
	}
	return c
}

func (d *dec) f32s(n int) []float32 {
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}

func (d *dec) f64s(n int) []float64 {
	s := d.take(8 * n)
	if s == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

func (d *dec) i32s(n int) []int32 {
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(d.b)-d.off)
	}
	return nil
}

// EncodeErr builds a MsgErr frame carrying msg.
func EncodeErr(msg string) []byte {
	f := NewFrame(MsgErr)
	f = appendU32(f, uint32(len(msg)))
	f = append(f, msg...)
	return Finish(f)
}

// DecodeErr decodes a MsgErr body into a RemoteError.
func DecodeErr(body []byte) error {
	d := &dec{b: body}
	n := d.n(1)
	s := d.take(n)
	if err := d.done(); err != nil {
		return err
	}
	return &RemoteError{Msg: string(s)}
}

// EncodeEmpty builds a body-less frame (MsgLoadOK, MsgPing, MsgPong).
func EncodeEmpty(msgType byte) []byte { return Finish(NewFrame(msgType)) }
