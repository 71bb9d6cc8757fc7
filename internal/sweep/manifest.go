package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"refereenet/internal/engine"
)

// The manifest is the sweep's crash-recovery log: one JSON header line
// naming the plan it belongs to, then one Result line per completed unit,
// appended and synced as units finish. Killing the coordinator loses at most
// the units in flight; rerunning with the same plan and manifest path skips
// every checkpointed unit and merges its recorded stats instead of
// recomputing them. A manifest written for a different plan is refused —
// the header fingerprint is a hash of the plan's canonical JSON, so resuming
// cannot silently mix results from two different sweeps.

// manifestHeader is the first line of a manifest file.
type manifestHeader struct {
	Fingerprint string `json:"fingerprint"`
	Units       int    `json:"units"`
}

// Fingerprint returns the hex SHA-256 of the plan's canonical JSON form —
// the identity the manifest header records (engine.Plan.Fingerprint, kept
// re-exported here because the manifest vocabulary lives in this package).
func Fingerprint(plan engine.Plan) (string, error) {
	return plan.Fingerprint()
}

// manifest appends checkpoint records to an open file. A nil *manifest
// (checkpointing disabled) accepts writes and drops them. record is
// mutex-guarded so the manifest stays safe to share between goroutines; the
// coordinator records from its accounting goroutine only.
type manifest struct {
	mu    sync.Mutex
	f     *os.File
	codec wireCodec // guarded by mu
}

// openManifest opens or creates the manifest at path for the given plan and
// returns the stats of already-completed units keyed by unit ID. An empty
// path disables checkpointing: the returned manifest is nil and done is
// empty. A truncated trailing line — the signature of a crash mid-append —
// is ignored; a header naming a different plan is an error.
func openManifest(path string, plan engine.Plan) (*manifest, map[int]engine.BatchStats, error) {
	done := make(map[int]engine.BatchStats)
	if path == "" {
		return nil, done, nil
	}
	fp, err := Fingerprint(plan)
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: create manifest: %w", err)
		}
		header, _ := json.Marshal(manifestHeader{Fingerprint: fp, Units: len(plan.Shards)})
		if _, err := f.Write(append(header, '\n')); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: write manifest header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: sync manifest: %w", err)
		}
		return &manifest{f: f}, done, nil
	case err != nil:
		return nil, nil, fmt.Errorf("sweep: read manifest: %w", err)
	}

	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("sweep: manifest %s is empty (no header)", path)
	}
	var header manifestHeader
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return nil, nil, fmt.Errorf("sweep: manifest %s header: %w", path, err)
	}
	if header.Fingerprint != fp {
		return nil, nil, fmt.Errorf("sweep: manifest %s belongs to a different plan (fingerprint %.12s…, want %.12s…)",
			path, header.Fingerprint, fp)
	}
	if header.Units != len(plan.Shards) {
		return nil, nil, fmt.Errorf("sweep: manifest %s records %d units, plan has %d", path, header.Units, len(plan.Shards))
	}
	var codec wireCodec
	for sc.Scan() {
		res, err := codec.decodeResult(sc.Bytes())
		if err != nil {
			// An unparseable record — a torn final line from a crash
			// mid-append, or a garbled interior line from disk trouble.
			// Skip it (that unit is simply re-run) rather than stopping:
			// a break here would shadow every intact record after the bad
			// line and silently redo work that was already checkpointed.
			continue
		}
		if res.Err == "" && res.ID >= 0 && res.ID < len(plan.Shards) {
			done[res.ID] = res.Stats
		}
	}
	// Drop any torn trailing bytes before appending: gluing a new record
	// onto an unterminated line would corrupt BOTH records and make the
	// next resume discard everything from the glue point on.
	validEnd := int64(bytes.LastIndexByte(raw, '\n') + 1)
	if validEnd == 0 {
		// Not even the (synced-at-creation) header line survived whole.
		return nil, nil, fmt.Errorf("sweep: manifest %s is truncated mid-header", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: reopen manifest: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: trim torn manifest line: %w", err)
	}
	return &manifest{f: f}, done, nil
}

// record appends one completed unit and syncs, so a kill immediately after
// cannot lose the checkpoint. The line is the wire's Result line — the
// codec writes json.Marshal's bytes into the manifest's reused buffer — so
// a manifest reads back through the same decoder as a daemon's reply.
func (m *manifest) record(res Result) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	line, err := m.codec.result(res)
	if err != nil {
		return fmt.Errorf("sweep: encode checkpoint: %w", err)
	}
	if _, err := m.f.Write(line); err != nil {
		return fmt.Errorf("sweep: append checkpoint: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("sweep: sync checkpoint: %w", err)
	}
	return nil
}

func (m *manifest) close() {
	if m != nil {
		m.f.Close()
	}
}
