package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// sampleMsgs covers every message type with a representative payload; the
// round-trip test and the fuzz seed corpus both draw from it.
func sampleMsgs() []Msg {
	return []Msg{
		{Type: THello, Magic: Magic, Version: Version},
		{Type: TWelcome, Version: Version, Objects: []ObjectInfo{
			{ID: 1, Kind: KindIndex, Domain: 1 << 20, Name: "orders"},
			{ID: 2, Kind: KindColumn, Name: "prices"},
		}},
		{Type: TLookup, Tag: 7, Object: 1, Keys: []uint64{3, 1, 4, 1, 5}},
		{Type: TUpsert, Tag: 8, Object: 1, KVs: []prefixtree.KV{{Key: 2, Value: 20}, {Key: 4, Value: 40}}},
		{Type: TDelete, Tag: 9, Object: 1, Keys: []uint64{2}},
		{Type: TScan, Tag: 10, Object: 1, Pred: colstore.Predicate{Op: colstore.Between, Operand: 5, High: 50}, Lo: 100, Hi: 999, Limit: 0},
		{Type: TScan, Tag: 11, Object: 1, Pred: colstore.Predicate{Op: colstore.All}, Lo: 0, Hi: 1<<20 - 1, Limit: 128},
		{Type: TColScan, Tag: 12, Object: 2, Pred: colstore.Predicate{Op: colstore.Greater, Operand: 17}},
		// Scan frames with degenerate predicate bounds: inverted key
		// ranges and empty-interval predicates must decode (they mean
		// "matches nothing"), never trip the decoder or the server.
		{Type: TScan, Tag: 20, Object: 1, Pred: colstore.Predicate{Op: colstore.All}, Lo: 999, Hi: 100},
		{Type: TScan, Tag: 21, Object: 1, Pred: colstore.Predicate{Op: colstore.Between, Operand: 50, High: 5}, Lo: 0, Hi: 1<<20 - 1},
		{Type: TScan, Tag: 22, Object: 1, Pred: colstore.Predicate{Op: colstore.Less, Operand: 0}, Lo: 0, Hi: 0},
		{Type: TScan, Tag: 23, Object: 1, Pred: colstore.Predicate{Op: colstore.Greater, Operand: ^uint64(0)}, Lo: 0, Hi: ^uint64(0), Limit: 1},
		{Type: TColScan, Tag: 24, Object: 2, Pred: colstore.Predicate{Op: colstore.Between, Operand: ^uint64(0), High: 0}},
		{Type: TColScan, Tag: 25, Object: 2, Pred: colstore.Predicate{Op: colstore.Between, Operand: 0, High: ^uint64(0)}},
		{Type: TResult, Tag: 7, KVs: []prefixtree.KV{{Key: 3, Value: 30}}},
		{Type: TAck, Tag: 8},
		{Type: TAgg, Tag: 10, Matched: 42, Sum: 4242},
		{Type: TError, Tag: 13, Err: "core: object 9 is not an index"},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		frame, err := AppendFrameV(nil, &m, Version)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Type, err)
		}
		plen := int(binary.LittleEndian.Uint32(frame))
		if plen != len(frame)-4 {
			t.Fatalf("%v: frame length %d, payload %d", m.Type, plen, len(frame)-4)
		}
		var got Msg
		if err := DecodeMsgV(&got, frame[4:], Version); err != nil {
			t.Fatalf("%v: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v: round trip mismatch:\n sent %+v\n got  %+v", m.Type, m, got)
		}
	}
}

// sampleMsgsV2 is sampleMsgs with a deadline on every non-handshake
// message, plus coded errors.
func sampleMsgsV2() []Msg {
	msgs := sampleMsgs()
	for i := range msgs {
		if !handshakeType(msgs[i].Type) {
			msgs[i].DeadlineUS = uint32(1000 * (i + 1))
		}
	}
	return append(msgs,
		Msg{Type: TError, Tag: 14, Code: CodeOverloaded, Err: "server overloaded", DeadlineUS: 500},
		Msg{Type: TError, Tag: 15, Code: CodeDeadlineExceeded, Err: "deadline exceeded"},
	)
}

func TestRoundTripV2(t *testing.T) {
	for _, m := range sampleMsgsV2() {
		frame, err := AppendFrameV(nil, &m, Version)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Type, err)
		}
		var got Msg
		if err := DecodeMsgV(&got, frame[4:], Version); err != nil {
			t.Fatalf("%v: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v: v2 round trip mismatch:\n sent %+v\n got  %+v", m.Type, m, got)
		}
	}
}

// TestHandshakeFramingIsVersionless pins what the handshake rule rests
// on: a Hello carries no deadline field, so a Hello naming any version
// decodes and the server can refuse the version by name; and frames of
// any version other than Version are refused with ErrVersion both ways.
func TestHandshakeFramingIsVersionless(t *testing.T) {
	for _, v := range []uint16{0, 1, Version, Version + 1} {
		frame, err := AppendFrameV(nil, &Msg{Type: THello, Magic: Magic, Version: v}, Version)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != 4+headerBytes+4+2 {
			t.Fatalf("hello v%d: %d-byte frame, want %d", v, len(frame), 4+headerBytes+4+2)
		}
		var m Msg
		if err := DecodeMsgV(&m, frame[4:], Version); err != nil || m.Version != v {
			t.Fatalf("hello v%d decoded as %+v, %v", v, m, err)
		}
	}
	ack, err := AppendFrameV(nil, &Msg{Type: TAck, Tag: 1}, Version)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{0, 1, Version + 1} {
		if _, err := AppendFrameV(nil, &Msg{Type: TAck}, v); !errors.Is(err, ErrVersion) {
			t.Errorf("encode at v%d: err = %v, want ErrVersion", v, err)
		}
		if err := DecodeMsgV(new(Msg), ack[4:], v); !errors.Is(err, ErrVersion) {
			t.Errorf("decode at v%d: err = %v, want ErrVersion", v, err)
		}
		if _, err := ReadMsgV(bytes.NewReader(ack), new(Msg), nil, v); !errors.Is(err, ErrVersion) {
			t.Errorf("read at v%d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestErrCodeMapping(t *testing.T) {
	cases := []struct {
		msg  Msg
		want error
	}{
		{Msg{Type: TError, Code: CodeOverloaded, Err: "busy"}, ErrOverloaded},
		{Msg{Type: TError, Code: CodeOverloaded}, ErrOverloaded},
		{Msg{Type: TError, Code: CodeDeadlineExceeded, Err: "late"}, ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		err := ErrFromMsg(&tc.msg)
		if !errors.Is(err, tc.want) {
			t.Errorf("code %d: err %v does not match %v", tc.msg.Code, err, tc.want)
		}
		if CodeForErr(err) != tc.msg.Code {
			t.Errorf("CodeForErr(%v) = %d, want %d", err, CodeForErr(err), tc.msg.Code)
		}
	}
	generic := ErrFromMsg(&Msg{Type: TError, Err: "boom"})
	if errors.Is(generic, ErrOverloaded) || errors.Is(generic, ErrDeadlineExceeded) {
		t.Fatalf("generic error %v matched a typed sentinel", generic)
	}
	if CodeForErr(generic) != CodeGeneric {
		t.Fatalf("CodeForErr(generic) = %d", CodeForErr(generic))
	}
}

// TestV2DecodeRejectsTruncatedDeadline covers the bytes v2 adds: a data
// header cut inside the deadline field, and a TError cut inside the code.
func TestV2DecodeRejectsTruncatedDeadline(t *testing.T) {
	frame, err := AppendFrameV(nil, &Msg{Type: TAck, Tag: 3, DeadlineUS: 77}, Version)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	var m Msg
	if err := DecodeMsgV(&m, payload[:headerBytes+2], Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated deadline: err = %v, want ErrTruncated", err)
	}
	if err := DecodeMsgV(&m, payload[:headerBytes], Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing deadline: err = %v, want ErrTruncated", err)
	}
	errFrame, err := AppendFrameV(nil, &Msg{Type: TError, Tag: 4, Code: CodeOverloaded, Err: ""}, Version)
	if err != nil {
		t.Fatal(err)
	}
	p := errFrame[4:]
	if err := DecodeMsgV(&m, p[:len(p)-2], Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated error code: err = %v, want ErrTruncated", err)
	}
}

func TestReadMsgStream(t *testing.T) {
	var stream []byte
	msgs := sampleMsgs()
	for i := range msgs {
		var err error
		stream, err = AppendFrameV(stream, &msgs[i], Version)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := range msgs {
		var got Msg
		var err error
		buf, err = ReadMsgV(r, &got, buf, Version)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(msgs[i], got) {
			t.Fatalf("msg %d mismatch: %+v != %+v", i, got, msgs[i])
		}
	}
	if _, err := ReadMsgV(r, new(Msg), buf, Version); err == nil {
		t.Fatal("expected EOF at stream end")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	lookup, err := AppendFrameV(nil, &Msg{Type: TLookup, Tag: 1, Object: 1, Keys: []uint64{1, 2}}, Version)
	if err != nil {
		t.Fatal(err)
	}
	payload := lookup[4:]

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"header only", payload[:headerBytes], ErrTruncated},
		{"bad type zero", append([]byte{0}, payload[1:]...), ErrBadType},
		{"bad type high", append([]byte{200}, payload[1:]...), ErrBadType},
		{"truncated batch", payload[:len(payload)-3], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), payload...), 0xff), ErrTruncated},
		{"ack with body", []byte{byte(TAck), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, ErrTrailing},
		{"bad predicate", func() []byte {
			f, _ := AppendFrameV(nil, &Msg{Type: TScan, Object: 1}, Version)
			p := append([]byte(nil), f[4:]...)
			p[headerBytes+4+4] = 99 // past the deadline and the object
			return p
		}(), ErrBadPred},
	}
	for _, tc := range cases {
		var m Msg
		if err := DecodeMsgV(&m, tc.p, Version); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRejectsLyingCounts(t *testing.T) {
	// A count field claiming more entries than the payload carries must be
	// rejected, not trusted into a huge allocation.
	var p []byte
	p = append(p, byte(TLookup))
	p = binary.LittleEndian.AppendUint64(p, 1)          // tag
	p = binary.LittleEndian.AppendUint32(p, 0)          // deadline
	p = binary.LittleEndian.AppendUint32(p, 1)          // object
	p = binary.LittleEndian.AppendUint32(p, 0xffffffff) // count
	var m Msg
	if err := DecodeMsgV(&m, p, Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameSize", err)
	}
	binary.LittleEndian.PutUint32(hdr[:], 3) // below the message header
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("undersized frame: err = %v, want ErrTruncated", err)
	}
}
