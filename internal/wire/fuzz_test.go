package wire

import (
	"reflect"
	"testing"
)

// FuzzWireDecode holds the codec to its contract on arbitrary bytes: never
// panic, never allocate from a lying length field, and — when a payload
// does decode — survive an encode/decode round trip unchanged (the decoder
// accepts exactly the encoder's language).
func FuzzWireDecode(f *testing.F) {
	for _, m := range append(sampleMsgs(), sampleMsgsV2()...) {
		frame, err := AppendFrameV(nil, &m, Version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TAck), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := DecodeMsgV(&m, data, Version); err != nil {
			return
		}
		frame, err := AppendFrameV(nil, &m, Version)
		if err != nil {
			t.Fatalf("decoded message failed to encode: %v\nmsg: %+v", err, m)
		}
		var again Msg
		if err := DecodeMsgV(&again, frame[4:], Version); err != nil {
			t.Fatalf("re-encoded message failed to decode: %v\nmsg: %+v", err, m)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip mismatch:\n first  %+v\n second %+v", m, again)
		}
	})
}
