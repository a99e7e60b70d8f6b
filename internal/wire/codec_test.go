package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/statedb"
)

// codecSampleBodies is one fully-populated instance of every type the
// binary codec knows, exercising nested structs, maps, nil-vs-empty
// slices and negative varints.
func codecSampleBodies() []any {
	prop := &ledger.Proposal{
		TxID: "tx9", ChannelID: "c1", Chaincode: "asset", Function: "set",
		Args: []string{"k", "v"}, Creator: []byte("cert"), Nonce: []byte{1, 2, 3},
	}
	ccEvent := &ledger.ChaincodeEvent{Name: "transfer", Payload: []byte("amount=5")}
	return []any{
		&request{Method: "peer.endorse", Deadline: time.Now().Add(time.Second).UnixNano(), Body: []byte(`{"x":1}`)},
		&request{Method: "peer.info"},
		&response{Err: &WireError{Code: codeOverloaded, Message: "shed", RetryAfterMs: 250}, More: true},
		&response{Body: []byte(`{"x":1}`)},
		&event{Block: &deliver.BlockEvent{Number: 4, Replayed: true}},
		&event{Status: &deliver.TxStatusEvent{
			BlockNum: 4, TxIndex: -1, TxID: "tx9", Code: ledger.MVCCConflict,
			Detail: "conflict on k", MissingCollections: []string{"pdc1", "pdc2"},
			ChaincodeEvent: ccEvent, Replayed: true,
		}},
		&event{},
		&event{Chunk: &SnapshotChunkEvent{Index: 2, Name: "chunk-000002.snap", Data: []byte("PDCSNAP1...")}},
		&snapshotMetaResponse{Export: 5, Manifest: []byte(`{"format":1}`)},
		&snapshotChunksRequest{Export: 5},
		&endorseRequest{Proposal: prop, Transient: map[string][]byte{"pw": []byte("s3cret"), "a": nil}},
		&subscribeRequest{From: 7, Live: true},
		&pvtRequest{TxID: "tx9", Collection: "pdc1"},
		&infoResponse{Name: "peer0.org1", Org: "org1", Channel: "c1", Height: 42, StateHash: "ab12", Base: 17},
		&orderRequest{Tx: []byte(`{"tx_id":"tx9"}`)},
		&txIDRequest{TxID: "tx9"},
		&inPendingResponse{Pending: true},
		&blocksRequest{From: 9},
		&evaluateResponse{Payload: []byte("answer")},
		&submitAsyncResponse{Handle: 3, TxID: "tx9"},
		&handleRequest{Handle: 3},
		&rwset.TxPvtRWSet{TxID: "tx9", CollSets: []rwset.CollPvtRWSet{{
			Collection: "pdc1",
			Reads:      []rwset.KVRead{{Key: "k", Version: statedb.Version(11)}},
			Writes:     []rwset.KVWrite{{Key: "k", Value: []byte("v"), IsDelete: false}, {Key: "old", IsDelete: true}},
		}}},
		&rwset.CollPvtRWSet{Collection: "pdc2", Writes: []rwset.KVWrite{{Key: "k2", Value: []byte("v2")}}},
		&service.InvokeRequest{
			Channel: "c1", Chaincode: "asset", Function: "get", Args: []string{"k"},
			Transient: map[string][]byte{"pw": []byte("s3cret")},
		},
		&service.SubmitResult{
			TxID: "tx9", Payload: []byte("ok"), Code: ledger.Valid, BlockNum: 4,
			Event: ccEvent, MissingCollections: []string{"pdc1"}, CommitWait: 125 * time.Millisecond,
		},
		&ledger.ProposalResponse{
			Payload: []byte("prp"), PlainPayload: []byte("plain"),
			Response:    ledger.Response{Status: ledger.StatusError, Message: "boom", Payload: []byte("why")},
			Endorsement: ledger.Endorsement{Endorser: []byte("cert"), Signature: []byte("sig")},
		},
	}
}

// TestBinaryCodecMatchesJSON pins the equivalence contract on
// deterministic, fully-populated values (FuzzCodecEquivalence explores
// the same property from fuzzed inputs).
func TestBinaryCodecMatchesJSON(t *testing.T) {
	for _, v := range codecSampleBodies() {
		checkCodecEquivalence(t, v)
	}
}

// TestBinaryCodecTypedNilPointer: peer.pvt legitimately returns a typed
// nil *CollPvtRWSet ("this peer has no such private data"); the binary
// codec must round-trip it to nil, exactly as JSON's null does.
func TestBinaryCodecTypedNilPointer(t *testing.T) {
	data, ok := binMarshal((*rwset.CollPvtRWSet)(nil))
	if !ok {
		t.Fatal("typed nil *CollPvtRWSet not binary-marshalable")
	}
	out := &rwset.CollPvtRWSet{Collection: "poisoned"}
	if ok, err := binUnmarshal(data, &out); !ok || err != nil {
		t.Fatalf("unmarshal: ok=%v err=%v", ok, err)
	}
	if out != nil {
		t.Fatalf("typed nil decoded to %+v, want nil", out)
	}
}

// TestBinaryCodecTruncationSafe: every strict prefix of a valid binary
// encoding must fail with an error — never panic, never decode
// "successfully" into partial data. The codec is positional, so any
// truncation starves a later field.
func TestBinaryCodecTruncationSafe(t *testing.T) {
	for _, v := range codecSampleBodies() {
		full, ok := binMarshal(v)
		if !ok {
			t.Fatalf("no binary codec for %T", v)
		}
		for n := 0; n < len(full); n++ {
			fresh := newZero(v)
			if ok, err := binUnmarshal(full[:n], fresh); ok && err == nil {
				t.Fatalf("%T: prefix %d/%d decoded without error", v, n, len(full))
			}
		}
		// Trailing garbage must also be rejected: the encoding is
		// canonical, like the framing layer.
		extended := append(append([]byte{}, full...), 0xFF)
		if ok, err := binUnmarshal(extended, newZero(v)); ok && err == nil {
			t.Fatalf("%T: trailing byte accepted", v)
		}
	}
}

// TestMarshalBodyRejectsUncataloguedType: a type missing from the
// binary codec's catalogue fails with a typed error in both directions,
// rather than travelling in some other encoding or misparsing.
func TestMarshalBodyRejectsUncataloguedType(t *testing.T) {
	type unknown struct {
		A int `json:"a"`
	}
	if data, err := marshalBody(&unknown{A: 7}); !errors.Is(err, errBinaryCodec) {
		t.Fatalf("marshal: got (%q, %v), want errBinaryCodec", data, err)
	}
	var out unknown
	if err := unmarshalBody([]byte(`{"a":7}`), &out); !errors.Is(err, errBinaryCodec) {
		t.Fatalf("unmarshal: got %v (%+v), want errBinaryCodec", err, out)
	}
}

// TestBinaryBlockKeepsCanonicalTxBytes: transactions travel inside
// binary blocks as their memoized canonical serialization, so a decoded
// block re-derives the identical data hash — the property that keeps
// state hashes byte-identical across processes.
func TestBinaryBlockKeepsCanonicalTxBytes(t *testing.T) {
	tx1 := &ledger.Transaction{
		TxID: "a", ChannelID: "c1", Creator: []byte("cert"),
		Proposal: &ledger.Proposal{
			TxID: "a", ChannelID: "c1", Chaincode: "cc", Function: "f",
			Args: []string{"k", "v"}, Creator: []byte("cert"), Nonce: []byte{1, 2},
		},
		ResponsePayload: []byte("pay"),
		Endorsements:    []ledger.Endorsement{{Endorser: []byte("cert"), Signature: []byte("sig")}},
	}
	tx2 := &ledger.Transaction{TxID: "b", ChannelID: "c1", Creator: []byte("cert"), ResponsePayload: []byte("pay")}
	block := ledger.NewBlock(3, []byte{0xAA}, []*ledger.Transaction{tx1, tx2})
	block.Metadata.ValidationFlags = []ledger.ValidationCode{ledger.Valid, ledger.MVCCConflict}

	ev := &event{Block: &deliver.BlockEvent{Number: 3, Block: block, Replayed: true}}
	data, ok := binMarshal(ev)
	if !ok {
		t.Fatal("event not binary-marshalable")
	}
	var got event
	if ok, err := binUnmarshal(data, &got); !ok || err != nil {
		t.Fatalf("unmarshal: ok=%v err=%v", ok, err)
	}
	gb := got.Block.Block
	if gb == nil {
		t.Fatal("decoded event lost its block")
	}
	for i, tx := range gb.Transactions {
		if !bytes.Equal(tx.Bytes(), block.Transactions[i].Bytes()) {
			t.Fatalf("tx %d: canonical bytes changed across the binary codec", i)
		}
	}
	if !gb.VerifyDataHash() {
		t.Fatal("decoded block fails VerifyDataHash")
	}
	if !bytes.Equal(gb.Header.DataHash, block.Header.DataHash) {
		t.Fatal("data hash changed across the binary codec")
	}
	if len(gb.Metadata.ValidationFlags) != 2 || gb.Metadata.ValidationFlags[1] != ledger.MVCCConflict {
		t.Fatalf("validation flags lost: %v", gb.Metadata.ValidationFlags)
	}
}

// TestBufPoolSizeClasses pins the pool's ownership-safety basics: a
// buffer obtained for n bytes has the capacity asked for, and recycled
// buffers come back zero-length.
func TestBufPoolSizeClasses(t *testing.T) {
	for _, n := range []int{1, 100, 4 << 10, 5 << 10, 64 << 10, 1 << 20, 3 << 20} {
		b := getBuf(n)
		if len(b) != 0 {
			t.Fatalf("getBuf(%d): len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("getBuf(%d): cap = %d", n, cap(b))
		}
		b = append(b, make([]byte, n)...)
		putBuf(b)
	}
	// Oversized buffers are dropped, never pooled (bounded memory).
	putBuf(make([]byte, maxPooledBuf+1))
}

// newZero returns a fresh zero-valued instance with v's type, usable as
// a binUnmarshal target.
func newZero(v any) any {
	switch v.(type) {
	case *request:
		return &request{}
	case *response:
		return &response{}
	case *event:
		return &event{}
	case *endorseRequest:
		return &endorseRequest{}
	case *subscribeRequest:
		return &subscribeRequest{}
	case *pvtRequest:
		return &pvtRequest{}
	case *infoResponse:
		return &infoResponse{}
	case *orderRequest:
		return &orderRequest{}
	case *txIDRequest:
		return &txIDRequest{}
	case *inPendingResponse:
		return &inPendingResponse{}
	case *blocksRequest:
		return &blocksRequest{}
	case *evaluateResponse:
		return &evaluateResponse{}
	case *submitAsyncResponse:
		return &submitAsyncResponse{}
	case *handleRequest:
		return &handleRequest{}
	case *snapshotMetaResponse:
		return &snapshotMetaResponse{}
	case *snapshotChunksRequest:
		return &snapshotChunksRequest{}
	case *rwset.TxPvtRWSet:
		return &rwset.TxPvtRWSet{}
	case *rwset.CollPvtRWSet:
		return &rwset.CollPvtRWSet{}
	case *service.InvokeRequest:
		return &service.InvokeRequest{}
	case *service.SubmitResult:
		return &service.SubmitResult{}
	case *ledger.ProposalResponse:
		return &ledger.ProposalResponse{}
	}
	panic("newZero: unknown type")
}
