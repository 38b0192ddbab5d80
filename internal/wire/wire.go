// Package wire defines the eriswire protocol: the length-prefixed binary
// framing the TCP serving layer (internal/server) and the Go client
// (internal/client) speak. A connection starts with a handshake — the
// client's Hello (magic, version) answered by the server's Welcome carrying
// the engine's object table — and then carries pipelined, tagged request
// and response messages. Tags correlate a response with its request;
// responses may arrive in any order, so a client can keep many batches in
// flight on one connection.
//
// Every frame is a little-endian u32 payload length followed by the
// payload; a payload is a one-byte message type, a u64 tag, a u32 relative
// deadline (absent on Hello and Welcome) and the type-specific body. The
// decoder is strict: unknown types, truncated or oversized bodies, and
// trailing bytes are errors, never panics — the fuzz harness in this
// package holds it to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// Protocol constants.
const (
	// Magic opens every Hello: "ERIS" read as a little-endian u32.
	Magic uint32 = 0x53495245
	// Version is the one protocol version this package speaks: every
	// non-handshake header carries a relative-deadline field and every
	// TError body a reject-code byte. Hello and Welcome carry no deadline,
	// so the version a peer names is readable whatever it is; any other
	// than Version is refused with ErrVersion.
	Version uint16 = 2
	// MaxFrame bounds a frame payload; a peer announcing more is corrupt
	// (or hostile) and the connection is dropped before allocating.
	MaxFrame = 1 << 20
	// MaxRows is the most pairs one TResult frame can carry: MaxFrame less
	// the header (type, tag, deadline) and the count, 16 bytes a pair. A
	// lookup of more keys or a rows scan with a larger Limit could not be
	// answered, so servers refuse them before running them.
	MaxRows = (MaxFrame - (headerBytes + 4 + 4)) / 16
)

// Type identifies a wire message.
type Type uint8

// Wire message types.
const (
	// TInvalid guards against zeroed buffers.
	TInvalid Type = iota
	// THello is the client's handshake: magic and version.
	THello
	// TWelcome answers a Hello with the server's object table.
	TWelcome
	// TLookup asks for a batch of keys of an index object.
	TLookup
	// TUpsert writes a batch of key/value pairs into an index object.
	TUpsert
	// TDelete removes a batch of keys from an index object.
	TDelete
	// TScan runs a filtered index range scan: an aggregate when Limit is
	// zero, up to Limit materialized rows otherwise.
	TScan
	// TColScan runs a filtered full scan over a column object.
	TColScan
	// TResult returns key/value pairs (lookup hits, scan rows).
	TResult
	// TAck confirms a write batch was applied.
	TAck
	// TAgg returns a scan aggregate (matched count, wrapping sum).
	TAgg
	// TError reports a failed request.
	TError
	numTypes
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TWelcome:
		return "welcome"
	case TLookup:
		return "lookup"
	case TUpsert:
		return "upsert"
	case TDelete:
		return "delete"
	case TScan:
		return "scan"
	case TColScan:
		return "colscan"
	case TResult:
		return "result"
	case TAck:
		return "ack"
	case TAgg:
		return "agg"
	case TError:
		return "error"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ObjectInfo is one entry of the Welcome object table: what the engine
// serves under which wire id.
type ObjectInfo struct {
	ID     uint32
	Kind   uint8 // 0 = range-partitioned index, 1 = size-partitioned column
	Domain uint64
	Name   string
}

// Object kinds in ObjectInfo.Kind.
const (
	KindIndex  uint8 = 0
	KindColumn uint8 = 1
)

// Error codes carried by TError bodies, so clients can react to a
// rejection without parsing the message text.
const (
	// CodeGeneric is an unclassified failure; retrying is pointless.
	CodeGeneric uint8 = 0
	// CodeOverloaded means admission control shed the request before it ran;
	// the request had no effect and retrying with backoff is safe.
	CodeOverloaded uint8 = 1
	// CodeDeadlineExceeded means the request's deadline passed before it
	// completed; it may or may not have had an effect.
	CodeDeadlineExceeded uint8 = 2
)

// Msg is one decoded wire message; which fields are meaningful depends on
// Type. A single struct (instead of one type per message) keeps the
// codec's hot path free of interface allocations.
type Msg struct {
	Type Type
	Tag  uint64

	// DeadlineUS is the request's remaining time budget in microseconds
	// when it left the sender; zero means no deadline. Carried by every
	// non-handshake header.
	DeadlineUS uint32

	// Hello / Welcome.
	Magic   uint32
	Version uint16
	Objects []ObjectInfo

	// Requests.
	Object uint32
	Keys   []uint64
	KVs    []prefixtree.KV
	Pred   colstore.Predicate
	Lo, Hi uint64
	Limit  uint32

	// Responses.
	Matched uint64
	Sum     uint64
	Err     string
	// Code classifies a TError (CodeGeneric, CodeOverloaded,
	// CodeDeadlineExceeded).
	Code uint8
}

// Decode errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrBadType   = errors.New("wire: invalid message type")
	ErrBadMagic  = errors.New("wire: bad magic")
	ErrFrameSize = errors.New("wire: frame exceeds MaxFrame")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
	ErrBadPred   = errors.New("wire: invalid predicate operator")
	ErrTooLong   = errors.New("wire: string too long")
	ErrVersion   = errors.New("wire: unsupported protocol version")
)

// Typed request rejections, surfaced to callers via errors.Is so overload
// handling doesn't depend on message text.
var (
	// ErrOverloaded is the decoded form of a CodeOverloaded TError: the
	// server shed the request before executing it.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrDeadlineExceeded is the decoded form of a CodeDeadlineExceeded
	// TError: the request's deadline expired before it completed.
	ErrDeadlineExceeded = errors.New("wire: deadline exceeded")
)

const headerBytes = 1 + 8 // type, tag (+ 4-byte deadline on non-handshake frames)

// handshakeType reports whether t is a handshake message, whose header
// carries no deadline field.
func handshakeType(t Type) bool { return t == THello || t == TWelcome }

// AppendFrameV appends the framed encoding of m (length prefix included)
// to buf and returns the extended slice. version is the connection's
// protocol version; any other than Version returns ErrVersion.
func AppendFrameV(buf []byte, m *Msg, version uint16) ([]byte, error) {
	if version != Version {
		return buf, ErrVersion
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length patched below
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint64(buf, m.Tag)
	if !handshakeType(m.Type) {
		buf = binary.LittleEndian.AppendUint32(buf, m.DeadlineUS)
	}
	var err error
	if buf, err = appendBody(buf, m); err != nil {
		return buf[:start], err
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], ErrFrameSize
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

func appendBody(buf []byte, m *Msg) ([]byte, error) {
	switch m.Type {
	case THello:
		buf = binary.LittleEndian.AppendUint32(buf, m.Magic)
		buf = binary.LittleEndian.AppendUint16(buf, m.Version)
	case TWelcome:
		if len(m.Objects) > 0xffff {
			return buf, ErrTooLong
		}
		buf = binary.LittleEndian.AppendUint16(buf, m.Version)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Objects)))
		for _, o := range m.Objects {
			if len(o.Name) > 0xffff {
				return buf, ErrTooLong
			}
			buf = binary.LittleEndian.AppendUint32(buf, o.ID)
			buf = append(buf, o.Kind)
			buf = binary.LittleEndian.AppendUint64(buf, o.Domain)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Name)))
			buf = append(buf, o.Name...)
		}
	case TLookup, TDelete:
		buf = binary.LittleEndian.AppendUint32(buf, m.Object)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Keys)))
		for _, k := range m.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	case TUpsert:
		buf = binary.LittleEndian.AppendUint32(buf, m.Object)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.KVs)))
		for _, kv := range m.KVs {
			buf = binary.LittleEndian.AppendUint64(buf, kv.Key)
			buf = binary.LittleEndian.AppendUint64(buf, kv.Value)
		}
	case TScan:
		buf = binary.LittleEndian.AppendUint32(buf, m.Object)
		buf = append(buf, byte(m.Pred.Op))
		buf = binary.LittleEndian.AppendUint64(buf, m.Pred.Operand)
		buf = binary.LittleEndian.AppendUint64(buf, m.Pred.High)
		buf = binary.LittleEndian.AppendUint64(buf, m.Lo)
		buf = binary.LittleEndian.AppendUint64(buf, m.Hi)
		buf = binary.LittleEndian.AppendUint32(buf, m.Limit)
	case TColScan:
		buf = binary.LittleEndian.AppendUint32(buf, m.Object)
		buf = append(buf, byte(m.Pred.Op))
		buf = binary.LittleEndian.AppendUint64(buf, m.Pred.Operand)
		buf = binary.LittleEndian.AppendUint64(buf, m.Pred.High)
	case TResult:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.KVs)))
		for _, kv := range m.KVs {
			buf = binary.LittleEndian.AppendUint64(buf, kv.Key)
			buf = binary.LittleEndian.AppendUint64(buf, kv.Value)
		}
	case TAck:
		// no body
	case TAgg:
		buf = binary.LittleEndian.AppendUint64(buf, m.Matched)
		buf = binary.LittleEndian.AppendUint64(buf, m.Sum)
	case TError:
		if len(m.Err) > 0xffff {
			return buf, ErrTooLong
		}
		buf = append(buf, m.Code)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Err)))
		buf = append(buf, m.Err...)
	default:
		return buf, fmt.Errorf("%w: %d", ErrBadType, uint8(m.Type))
	}
	return buf, nil
}

// DecodeMsgV parses one frame payload (without the length prefix) into m.
// It is strict: the payload must contain exactly one well-formed message.
// All decoded slices are freshly allocated, never aliases of p. version is
// the connection's protocol version; any other than Version returns
// ErrVersion.
func DecodeMsgV(m *Msg, p []byte, version uint16) error {
	if version != Version {
		return ErrVersion
	}
	if len(p) < headerBytes {
		return ErrTruncated
	}
	t := Type(p[0])
	if t == TInvalid || t >= numTypes {
		return fmt.Errorf("%w: %d", ErrBadType, p[0])
	}
	*m = Msg{Type: t, Tag: binary.LittleEndian.Uint64(p[1:])}
	b := p[headerBytes:]
	if !handshakeType(t) {
		if len(b) < 4 {
			return ErrTruncated
		}
		m.DeadlineUS = binary.LittleEndian.Uint32(b)
		b = b[4:]
	}
	switch t {
	case THello:
		if len(b) != 4+2 {
			return ErrTruncated
		}
		m.Magic = binary.LittleEndian.Uint32(b)
		m.Version = binary.LittleEndian.Uint16(b[4:])
	case TWelcome:
		if len(b) < 2+2 {
			return ErrTruncated
		}
		m.Version = binary.LittleEndian.Uint16(b)
		n := int(binary.LittleEndian.Uint16(b[2:]))
		b = b[4:]
		if n > 0 {
			m.Objects = make([]ObjectInfo, 0, min(n, 1024))
		}
		for i := 0; i < n; i++ {
			if len(b) < 4+1+8+2 {
				return ErrTruncated
			}
			o := ObjectInfo{
				ID:     binary.LittleEndian.Uint32(b),
				Kind:   b[4],
				Domain: binary.LittleEndian.Uint64(b[5:]),
			}
			nameLen := int(binary.LittleEndian.Uint16(b[13:]))
			b = b[15:]
			if len(b) < nameLen {
				return ErrTruncated
			}
			o.Name = string(b[:nameLen])
			b = b[nameLen:]
			m.Objects = append(m.Objects, o)
		}
		if len(b) != 0 {
			return ErrTrailing
		}
	case TLookup, TDelete:
		obj, rest, err := decodeBatchHeader(b, 8)
		if err != nil {
			return err
		}
		m.Object = obj
		n := len(rest) / 8
		if n > 0 {
			m.Keys = make([]uint64, n)
			for i := range m.Keys {
				m.Keys[i] = binary.LittleEndian.Uint64(rest[8*i:])
			}
		}
	case TUpsert:
		obj, rest, err := decodeBatchHeader(b, 16)
		if err != nil {
			return err
		}
		m.Object = obj
		m.KVs = decodeKVs(rest)
	case TScan:
		if len(b) != 4+1+8+8+8+8+4 {
			return ErrTruncated
		}
		m.Object = binary.LittleEndian.Uint32(b)
		m.Pred.Op = colstore.PredicateOp(b[4])
		if m.Pred.Op > colstore.Between {
			return fmt.Errorf("%w: %d", ErrBadPred, b[4])
		}
		m.Pred.Operand = binary.LittleEndian.Uint64(b[5:])
		m.Pred.High = binary.LittleEndian.Uint64(b[13:])
		m.Lo = binary.LittleEndian.Uint64(b[21:])
		m.Hi = binary.LittleEndian.Uint64(b[29:])
		m.Limit = binary.LittleEndian.Uint32(b[37:])
	case TColScan:
		if len(b) != 4+1+8+8 {
			return ErrTruncated
		}
		m.Object = binary.LittleEndian.Uint32(b)
		m.Pred.Op = colstore.PredicateOp(b[4])
		if m.Pred.Op > colstore.Between {
			return fmt.Errorf("%w: %d", ErrBadPred, b[4])
		}
		m.Pred.Operand = binary.LittleEndian.Uint64(b[5:])
		m.Pred.High = binary.LittleEndian.Uint64(b[13:])
	case TResult:
		if len(b) < 4 {
			return ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(b))
		rest := b[4:]
		if len(rest) != 16*n {
			return ErrTruncated
		}
		m.KVs = decodeKVs(rest)
	case TAck:
		if len(b) != 0 {
			return ErrTrailing
		}
	case TAgg:
		if len(b) != 8+8 {
			return ErrTruncated
		}
		m.Matched = binary.LittleEndian.Uint64(b)
		m.Sum = binary.LittleEndian.Uint64(b[8:])
	case TError:
		if len(b) < 1+2 {
			return ErrTruncated
		}
		m.Code = b[0]
		n := int(binary.LittleEndian.Uint16(b[1:]))
		if len(b) != 1+2+n {
			return ErrTruncated
		}
		m.Err = string(b[3:])
	}
	return nil
}

// decodeBatchHeader parses "object u32, count u32" and checks the count
// against the remaining bytes (elem bytes per entry), returning the entry
// bytes.
func decodeBatchHeader(b []byte, elem int) (uint32, []byte, error) {
	if len(b) < 4+4 {
		return 0, nil, ErrTruncated
	}
	obj := binary.LittleEndian.Uint32(b)
	n := int(binary.LittleEndian.Uint32(b[4:]))
	rest := b[8:]
	if n < 0 || n > MaxFrame/elem || len(rest) != elem*n {
		return 0, nil, ErrTruncated
	}
	return obj, rest, nil
}

func decodeKVs(rest []byte) []prefixtree.KV {
	n := len(rest) / 16
	if n == 0 {
		return nil
	}
	kvs := make([]prefixtree.KV, n)
	for i := range kvs {
		kvs[i].Key = binary.LittleEndian.Uint64(rest[16*i:])
		kvs[i].Value = binary.LittleEndian.Uint64(rest[16*i+8:])
	}
	return kvs
}

// ReadFrame reads one length-prefixed frame payload from r into buf
// (growing it as needed) and returns the payload slice, which aliases buf.
// The length prefix is read into buf too: a local array would escape
// through r, one allocation per frame. Readers on a socket should pass a
// bufio.Reader, so that a frame costs no read syscall of its own.
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, buf, ErrFrameSize
	}
	if n < headerBytes {
		return nil, buf, ErrTruncated
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// ErrFromMsg converts a decoded TError into a Go error, mapping known
// reject codes onto their sentinels so callers can errors.Is on them.
func ErrFromMsg(m *Msg) error {
	var sentinel error
	switch m.Code {
	case CodeOverloaded:
		sentinel = ErrOverloaded
	case CodeDeadlineExceeded:
		sentinel = ErrDeadlineExceeded
	default:
		return errors.New(m.Err)
	}
	if m.Err == "" {
		return sentinel
	}
	return fmt.Errorf("%w: %s", sentinel, m.Err)
}

// CodeForErr classifies err into the wire reject code a TError should
// carry.
func CodeForErr(err error) uint8 {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	}
	return CodeGeneric
}

// ReadMsgV reads and decodes one frame from r; buf is the reusable read
// buffer, returned (possibly grown) for the next call. version is as for
// DecodeMsgV.
func ReadMsgV(r io.Reader, m *Msg, buf []byte, version uint16) ([]byte, error) {
	p, buf, err := ReadFrame(r, buf)
	if err != nil {
		return buf, err
	}
	return buf, DecodeMsgV(m, p, version)
}
