package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/statedb"
)

// rpcSeedPayloads serializes one instance of every RPC body in the
// catalogue, so the fuzzer starts from realistic protocol traffic
// rather than random bytes.
func rpcSeedPayloads(t interface{ Fatal(...any) }) [][]byte {
	marshal := func(v any) []byte {
		b, ok := binMarshal(v)
		if !ok {
			t.Fatal("seed type has no binary codec")
		}
		return b
	}
	prop := &ledger.Proposal{TxID: "tx1", Chaincode: "asset", Function: "set", Args: []string{"k", "v"}}
	bodies := []any{
		&request{Method: "peer.endorse", Body: marshal(&endorseRequest{Proposal: prop, Transient: map[string][]byte{"p": []byte("x")}})},
		&request{Method: "peer.subscribe", Body: marshal(&subscribeRequest{From: 3})},
		&request{Method: "peer.pvt", Body: marshal(&pvtRequest{TxID: "tx1", Collection: "pdc1"})},
		&request{Method: "peer.pvtpush", Body: marshal(&rwset.TxPvtRWSet{TxID: "tx1", CollSets: []rwset.CollPvtRWSet{{Collection: "pdc1", Writes: []rwset.KVWrite{{Key: "k", Value: []byte("v")}}}}})},
		&request{Method: "peer.info"},
		&request{Method: "order.submit", Body: marshal(&orderRequest{Tx: []byte(`{"tx_id":"tx1"}`)})},
		&request{Method: "order.inpending", Body: marshal(&txIDRequest{TxID: "tx1"})},
		&request{Method: "order.blocks", Body: marshal(&blocksRequest{From: 0})},
		&request{Method: "gw.submit", Body: marshal(service.NewInvoke("asset", "set", "k", "v"))},
		&request{Method: "gw.status", Body: marshal(&handleRequest{Handle: 7})},
		&response{Body: marshal(&infoResponse{Name: "peer0.org1", Org: "org1", Channel: "c1", Height: 4, StateHash: "aa"})},
		&response{More: true},
		&response{Err: &WireError{Code: codeOverloaded, Message: "shed", RetryAfterMs: 250}},
		&event{Block: &deliver.BlockEvent{Number: 9}},
		&event{Status: &deliver.TxStatusEvent{TxID: "tx1", BlockNum: 9}},
	}
	out := make([][]byte, 0, len(bodies))
	for _, b := range bodies {
		out = append(out, marshal(b))
	}
	return out
}

// FuzzWireFrame feeds arbitrary bytes to the frame reader. The protocol
// promise under test: a reader never panics, never allocates beyond
// maxFrame, and every rejection is a typed error (ErrCorrupt,
// ErrFrameTooLarge, or a short-read io error). Valid frames that decode
// must re-encode byte-identically.
func FuzzWireFrame(f *testing.F) {
	types := []byte{ftRequest, ftResponse, ftEvent, ftCancel}
	for i, payload := range rpcSeedPayloads(f) {
		encoded := appendFrame(nil, frame{Type: types[i%len(types)], Stream: uint64(i), Payload: payload})
		f.Add(encoded)
		// Seed a truncation and a bit flip of each, so the interesting
		// failure paths are in the corpus from generation zero.
		f.Add(encoded[:len(encoded)/2])
		flipped := append([]byte(nil), encoded...)
		flipped[i%len(flipped)] ^= 0x40
		f.Add(flipped)
	}
	// Bare bodies outside any envelope, plus a hand-built multi-event
	// batch, so the fuzzer explores the ftEvents frame type from
	// generation zero.
	for i, body := range []any{
		&pvtRequest{TxID: "tx1", Collection: "pdc1"},
		&infoResponse{Name: "peer0.org1", Org: "org1", Channel: "c1", Height: 4, StateHash: "aa"},
		&rwset.TxPvtRWSet{TxID: "tx1", CollSets: []rwset.CollPvtRWSet{{Collection: "pdc1", Writes: []rwset.KVWrite{{Key: "k", Value: []byte("v")}}}}},
		&event{Status: &deliver.TxStatusEvent{TxID: "tx1", BlockNum: 9}},
	} {
		bin, ok := binMarshal(body)
		if !ok {
			f.Fatal("binary seed type has no binary codec")
		}
		f.Add(appendFrame(nil, frame{Type: types[i%len(types)], Stream: uint64(i), Payload: bin}))
	}
	if batch, err := marshalBody(&event{Block: &deliver.BlockEvent{Number: 9}}); err == nil {
		payload := appendUvarint(nil, 2)
		for i := 0; i < 2; i++ {
			payload = appendUvarint(payload, uint64(len(batch)))
			payload = append(payload, batch...)
		}
		f.Add(appendFrame(nil, frame{Type: ftEvents, Stream: 5, Payload: payload}))
	}
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, 1, ftRequest}) // retired JSON version
	f.Add([]byte{magic0, magic1, version, ftEvents})

	const maxFrame = 1 << 20 // keep fuzz allocations bounded
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error from readFrame: %v", err)
			}
			return
		}
		// A frame that validated must re-encode to exactly the bytes
		// consumed (header+payload+trailer) — framing is canonical.
		reencoded := appendFrame(nil, got)
		consumed := headerSize + len(got.Payload) + trailerSize
		if !bytes.Equal(reencoded, data[:consumed]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reencoded, data[:consumed])
		}
		// And reading the re-encoding must yield the same frame.
		again, err := readFrame(bytes.NewReader(reencoded), maxFrame)
		if err != nil {
			t.Fatalf("re-read of valid frame failed: %v", err)
		}
		if again.Type != got.Type || again.Stream != got.Stream || !bytes.Equal(again.Payload, got.Payload) {
			t.Fatalf("re-read mismatch: %+v vs %+v", again, got)
		}
	})
}

// checkCodecEquivalence asserts that decoding v's JSON serialization
// and decoding its binary serialization produce identical structs —
// encoding/json serves as the oracle for the binary codec's semantics.
func checkCodecEquivalence(t *testing.T, v any) {
	t.Helper()
	bin, ok := binMarshal(v)
	if !ok {
		t.Fatalf("no binary codec for %T", v)
	}
	jb, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json marshal %T: %v", v, err)
	}
	jv := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	bv := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := json.Unmarshal(jb, jv); err != nil {
		t.Fatalf("json unmarshal %T: %v", v, err)
	}
	if ok, err := binUnmarshal(bin, bv); !ok || err != nil {
		t.Fatalf("binary unmarshal %T: ok=%v err=%v", v, ok, err)
	}
	if !reflect.DeepEqual(jv, bv) {
		t.Fatalf("%T: JSON and binary decodes differ:\n json: %#v\n bin:  %#v", v, jv, bv)
	}
}

// FuzzCodecEquivalence drives fuzzed field values through both codecs
// and requires the decoded structs to match exactly — nil-ness of
// slices and maps included. This is the wire's substitute for a schema:
// JSON stays the reference semantics, and the binary codec must never
// diverge from it.
func FuzzCodecEquivalence(f *testing.F) {
	f.Add("tx1", "pdc1", "k", []byte("v"), uint64(3), int64(200), false)
	f.Add("", "", "", []byte(nil), uint64(0), int64(0), true)
	f.Add("a b", "c", "日本", []byte{0, 1, 2}, uint64(1)<<40, int64(-5), false)
	f.Fuzz(func(t *testing.T, txid, coll, key string, value []byte, num uint64, n int64, flag bool) {
		if !utf8.ValidString(txid) || !utf8.ValidString(coll) || !utf8.ValidString(key) {
			t.Skip("encoding/json replaces invalid UTF-8; not an equivalence the codecs promise")
		}
		// Both codecs preserve nil-vs-empty, but `omitempty` JSON tags
		// drop empty non-nil values, which decode back as nil — an
		// encoding/json quirk, not a codec property. Normalize inputs.
		if len(value) == 0 {
			value = nil
		}
		ccEvent := &ledger.ChaincodeEvent{Name: key, Payload: value}
		if !flag {
			ccEvent = nil
		}
		msgs := []any{
			&pvtRequest{TxID: txid, Collection: coll},
			&txIDRequest{TxID: txid},
			&subscribeRequest{From: num, Live: flag},
			&blocksRequest{From: num},
			&handleRequest{Handle: num},
			&inPendingResponse{Pending: flag},
			&infoResponse{Name: txid, Org: coll, Channel: key, Height: num, StateHash: coll},
			&orderRequest{Tx: value},
			&evaluateResponse{Payload: value},
			&submitAsyncResponse{Handle: num, TxID: txid},
			&request{Method: txid, Deadline: n},
			&response{Err: &WireError{Code: txid, Message: coll, RetryAfterMs: n}, More: flag},
			&endorseRequest{
				Proposal:  &ledger.Proposal{TxID: txid, ChannelID: coll, Chaincode: key, Function: txid, Args: []string{txid, key}},
				Transient: map[string][]byte{key: value},
			},
			&rwset.TxPvtRWSet{TxID: txid, CollSets: []rwset.CollPvtRWSet{{
				Collection: coll,
				Reads:      []rwset.KVRead{{Key: key, Version: statedb.Version(num)}},
				Writes:     []rwset.KVWrite{{Key: key, Value: value, IsDelete: flag}},
			}}},
			&service.InvokeRequest{Channel: coll, Chaincode: txid, Function: key, Args: []string{txid, key}, Transient: map[string][]byte{key: value}},
			&service.SubmitResult{TxID: txid, Payload: value, Code: ledger.ValidationCode(n), Detail: coll, BlockNum: num, Event: ccEvent, MissingCollections: []string{coll}, CommitWait: time.Duration(n)},
			&ledger.ProposalResponse{Payload: value, PlainPayload: value, Response: ledger.Response{Status: int32(n), Message: coll, Payload: value}, Endorsement: ledger.Endorsement{Endorser: value, Signature: value}},
			&event{Status: &deliver.TxStatusEvent{BlockNum: num, TxIndex: int(n), TxID: txid, Code: ledger.ValidationCode(n), Detail: coll, MissingCollections: []string{coll}, ChaincodeEvent: ccEvent, Replayed: flag}},
		}
		for _, m := range msgs {
			checkCodecEquivalence(t, m)
		}
	})
}

// FuzzWireErrorRoundTrip checks the error-code mapping never loses the
// retry hint and never panics on arbitrary code/message pairs.
func FuzzWireErrorRoundTrip(f *testing.F) {
	f.Add("overloaded", "busy", int64(250))
	f.Add("no_endorsers", "", int64(0))
	f.Add("internal", "boom", int64(0))
	f.Add("unknown_code", "??", int64(-1))
	f.Add("", "", int64(1<<62))
	f.Fuzz(func(t *testing.T, code, msg string, retryMs int64) {
		we := &WireError{Code: code, Message: msg, RetryAfterMs: retryMs}
		err := decodeError(we)
		if err == nil {
			t.Fatalf("decodeError(%+v) = nil", we)
		}
		// Re-encoding a decoded error must preserve the code for every
		// catalogued code (unknown codes degrade to internal).
		if _, known := sentinelByCode[code]; known || code == codeOverloaded {
			back := encodeError(err)
			if back.Code != code {
				t.Fatalf("code %q round-tripped to %q", code, back.Code)
			}
		}
	})
}
