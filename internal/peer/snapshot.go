package peer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/snapshot"
	"repro/internal/statedb"
	"repro/internal/storage"
	"repro/internal/validator"
)

// exportRetries bounds how often ExportSnapshot restarts after a block
// commit lands mid-export.
const exportRetries = 5

// ExportSnapshot serializes the peer's full commit-point state into dir
// (which must not exist yet): every statedb tuple and tombstone across
// all namespaces — public, hashed-private and original-private — plus
// the pending BlockToLive purge schedule, the missing-private-data
// records, and the block-height watermark. The artifact format is
// documented in docs/SNAPSHOT.md; another peer installs it with
// InstallSnapshot and catches up from the watermark via delivery
// replay.
//
// The cut is consistent: the statedb view is a copy-on-write snapshot,
// and the export restarts if a block commits between capturing the
// chain height and the state view.
func (p *Peer) ExportSnapshot(dir string) (*snapshot.Manifest, error) {
	fail := func(err error) (*snapshot.Manifest, error) {
		return nil, fmt.Errorf("peer %s: export snapshot: %w", p.Name(), err)
	}
	if _, err := os.Stat(dir); err == nil {
		return fail(fmt.Errorf("%s already exists", dir))
	}
	tmp := dir + ".partial"
	for attempt := 0; ; attempt++ {
		if err := os.RemoveAll(tmp); err != nil {
			return fail(err)
		}
		m, raced, err := p.tryExportSnapshot(tmp)
		if err != nil {
			os.RemoveAll(tmp)
			return fail(err)
		}
		if raced {
			if attempt >= exportRetries {
				os.RemoveAll(tmp)
				return fail(fmt.Errorf("chain advanced during every attempt (%d tries)", attempt+1))
			}
			continue
		}
		// The artifact becomes visible atomically: a crash mid-export
		// leaves only the .partial directory, never a half-written dir.
		if err := os.Rename(tmp, dir); err != nil {
			os.RemoveAll(tmp)
			return fail(err)
		}
		return m, nil
	}
}

// tryExportSnapshot writes one export attempt into dir. raced reports
// that a block committed mid-export and the attempt must be discarded.
func (p *Peer) tryExportSnapshot(dir string) (m *snapshot.Manifest, raced bool, err error) {
	height := p.blocks.Height()
	lastHash := p.blocks.LastHash()
	snap := p.db.Snapshot()
	defer snap.Release()

	w, err := snapshot.NewWriter(dir)
	if err != nil {
		return nil, false, err
	}
	for _, ns := range snap.AllNamespaces() {
		it := snap.RangeIter(ns, "", "", 0)
		for {
			page := it.NextPage()
			if page == nil {
				break
			}
			for _, kv := range page {
				err := w.Add(snapshot.Record{
					Kind:      snapshot.KindState,
					Namespace: ns,
					Key:       kv.Key,
					Value:     kv.Value,
					Version:   uint64(kv.Version),
				})
				if err != nil {
					return nil, false, err
				}
			}
		}
		for _, tomb := range snap.Tombstones(ns) {
			err := w.Add(snapshot.Record{
				Kind:      snapshot.KindTombstone,
				Namespace: ns,
				Key:       tomb.Key,
				Version:   uint64(tomb.Version),
			})
			if err != nil {
				return nil, false, err
			}
		}
	}
	for _, e := range p.pvt.PendingPurges() {
		err := w.Add(snapshot.Record{Kind: snapshot.KindPurge, At: e.At, Namespace: e.Namespace, Key: e.Key})
		if err != nil {
			return nil, false, err
		}
	}
	for _, e := range p.validator.Missing() {
		err := w.Add(snapshot.Record{Kind: snapshot.KindMissing, TxID: e.TxID, Collection: e.Collection})
		if err != nil {
			return nil, false, err
		}
	}
	if p.blocks.Height() != height {
		// A commit landed while exporting: the captured height no longer
		// matches the state view. Discard and retry.
		return nil, true, nil
	}
	m, err = w.Finish(height, lastHash, snap.Hash())
	if err != nil {
		return nil, false, err
	}
	return m, false, nil
}

// InstallSnapshot installs a snapshot artifact into this (empty) peer:
// the world state, tombstones, purge schedule and missing records land
// exactly as exported, and the chain adopts the snapshot height as its
// base — without a single block passing through the validator. The
// peer then catches up from the watermark via the ordinary delivery
// path (deliver.Subscribe from manifest.Height).
//
// The artifact is fully verified — manifest hash, chunk hashes, record
// CRCs, counts — before anything is mutated, so a failed verification
// (storage.ErrCorrupt) leaves both the peer and the artifact directory
// untouched: re-fetch into the same dir and retry. With a storage
// backend attached, durability follows the commit ordering contract:
// the chain base first, then the whole state as one atomic batch at the
// snapshot height. A crash between the two is detected by Restore
// (watermark below base) and the install is simply repeated.
func (p *Peer) InstallSnapshot(dir string) error {
	fail := func(err error) error {
		return fmt.Errorf("peer %s: install snapshot: %w", p.Name(), err)
	}
	if h, b := p.blocks.Height(), p.blocks.Base(); h != 0 || b != 0 {
		return fail(fmt.Errorf("peer is not empty (height %d, base %d)", h, b))
	}

	// Verify everything before touching any store.
	m, records, err := snapshot.Load(dir)
	if err != nil {
		return fail(err)
	}
	lastHash, err := m.LastBlockHashBytes()
	if err != nil {
		return fail(err)
	}
	stateHash, err := m.StateHashBytes()
	if err != nil {
		return fail(err)
	}

	entries := make([]statedb.JournalEntry, 0, m.Counts.State+m.Counts.Tombstones)
	var purges []storage.PurgeEntry
	var missing []validator.MissingEntry
	for _, r := range records {
		switch r.Kind {
		case snapshot.KindState:
			entries = append(entries, statedb.JournalEntry{
				Namespace: r.Namespace, Key: r.Key, Value: r.Value, Version: statedb.Version(r.Version),
			})
		case snapshot.KindTombstone:
			entries = append(entries, statedb.JournalEntry{
				Namespace: r.Namespace, Key: r.Key, Version: statedb.Version(r.Version), Delete: true,
			})
		case snapshot.KindPurge:
			purges = append(purges, storage.PurgeEntry{At: r.At, Namespace: r.Namespace, Key: r.Key})
		case snapshot.KindMissing:
			missing = append(missing, validator.MissingEntry{TxID: r.TxID, Collection: r.Collection})
		}
	}

	// Durable install first, in commit order (docs/STORAGE.md §7): chain
	// base, then the state as ONE batch at the snapshot height — atomic
	// by the StateStore contract, so a crash leaves either no state or
	// all of it.
	if p.backend != nil {
		bs, ok := p.backend.Blocks().(storage.BaseBlockStore)
		if !ok {
			return fail(fmt.Errorf("storage backend %q does not support snapshot install", p.backend.Name()))
		}
		if wm := p.backend.State().Watermark(); wm != 0 {
			return fail(fmt.Errorf("storage backend is not empty (watermark %d)", wm))
		}
		if err := bs.InstallBase(m.Height, lastHash); err != nil {
			return fail(err)
		}
		batch := storage.StateBatch{Height: m.Height, Records: make([]storage.StateRecord, len(entries))}
		for i, e := range entries {
			batch.Records[i] = storage.StateRecord{
				Namespace: e.Namespace, Key: e.Key, Value: e.Value, Version: uint64(e.Version), Delete: e.Delete,
			}
		}
		if err := p.backend.State().Apply(batch); err != nil {
			return fail(err)
		}
	}

	// In-memory install: chain base, state (journal-bypassing — the
	// records are durable already), then the private-data bookkeeping
	// (mirrored to the durable store as it lands).
	if err := p.blocks.InstallBase(m.Height, lastHash); err != nil {
		return fail(err)
	}
	p.db.RestoreBatch(entries)
	if err := p.pvt.InstallPurges(purges); err != nil {
		return fail(err)
	}
	if err := p.validator.SeedMissing(missing); err != nil {
		return fail(err)
	}

	// End-to-end check: the installed world state must hash to exactly
	// the exporter's digest.
	if got := p.db.StateHash(); !bytes.Equal(got, stateHash) {
		return fail(fmt.Errorf("%w: installed state hash %x, manifest records %x",
			storage.ErrCorrupt, got, stateHash))
	}
	return nil
}

// SnapshotManifestPath returns the manifest path inside an artifact
// directory (convenience for transports that ship the raw files).
func SnapshotManifestPath(dir string) string { return filepath.Join(dir, snapshot.ManifestName) }
