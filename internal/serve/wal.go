package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// The daemon's on-disk durability mirrors the simulator's model at the
// process level: every applied update is appended to a per-host
// operation log and fsynced before the RPC acks, so a killed process
// recovers by rebuilding its replica from the seeds and replaying the
// log in order (replica state is deterministic in the seeds plus the
// ordered update sequence — the parity invariant the whole daemon rests
// on). Every CheckpointEvery records the daemon also writes a checkpoint
// summary (record count + key-set digest, tmp+rename so it is always
// whole); recovery verifies the replayed state against it at the exact
// record the checkpoint covered, catching a truncated or corrupted log
// instead of silently serving a diverged replica.
//
// Unlike the simulator's checkpoints, the daemon's do not truncate the
// log: the structure's in-memory topology is seed+history dependent, so
// the oplog itself is the canonical durable state and stays append-only.
// The checkpoint is a verification anchor, not a snapshot.

// walRecord is one logged update.
type walRecord struct {
	Op     byte // OpInsert or OpDelete
	Key    uint64
	Origin int
}

// walCheckpoint is the periodic verification anchor: the digest of the
// daemon's key set after exactly Records logged updates.
type walCheckpoint struct {
	Records int    `json:"records"`
	N       int    `json:"n"`
	Sum     uint64 `json:"sum"`
}

// walLog is an open per-host operation log.
type walLog struct {
	f        *os.File
	path     string
	ckptPath string
	every    int
	records  int // total records in the log
	since    int // records since the last checkpoint
}

// line is the record's one log line, newline included: the only form
// append writes and parseWAL accepts.
func (rec walRecord) line() string {
	return fmt.Sprintf("%c %d %d\n", rec.Op, rec.Key, rec.Origin)
}

// openWAL opens (creating if absent) host h's log under dir and returns
// it along with any records a previous process life left behind, in
// append order; every record's origin must lie in [0, hosts). every <= 0
// selects the simulator's default cadence.
func openWAL(dir string, h sim.HostID, hosts, every int) (*walLog, []walRecord, error) {
	if every <= 0 {
		every = sim.DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	l := &walLog{
		path:     filepath.Join(dir, fmt.Sprintf("host-%d.wal", h)),
		ckptPath: filepath.Join(dir, fmt.Sprintf("host-%d.ckpt", h)),
		every:    every,
	}
	recs, err := readWAL(l.path, hosts)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: wal open: %w", err)
	}
	l.f = f
	l.records = len(recs)
	l.since = len(recs) % every
	return l, recs, nil
}

// readWAL parses a log file (parseWAL); a missing file is an empty log.
func readWAL(path string, hosts int) ([]walRecord, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: wal read: %w", err)
	}
	return parseWAL(buf, hosts)
}

// parseWAL parses a log: whole "\n"-terminated lines, each exactly a
// record's line() with an origin in [0, hosts). Anything else — a torn
// last line, a stray field, a signed or zero-padded number, an empty
// line — is refused with an error naming the record, never truncated: a
// replay that skipped it would serve a diverged replica.
func parseWAL(buf []byte, hosts int) ([]walRecord, error) {
	var out []walRecord
	for len(buf) > 0 {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			return nil, fmt.Errorf("serve: wal record %d is torn (no newline): %q", len(out), buf)
		}
		line := string(buf[:i+1])
		buf = buf[i+1:]
		rec, ok := parseRecord(line)
		if !ok {
			return nil, fmt.Errorf("serve: wal record %d is corrupt: %q", len(out), line)
		}
		if rec.Origin < 0 || rec.Origin >= hosts {
			return nil, fmt.Errorf("serve: wal record %d: origin %d outside [0,%d)", len(out), rec.Origin, hosts)
		}
		out = append(out, rec)
	}
	return out, nil
}

// parseRecord parses one line, reporting false unless the line is
// exactly the parsed record's line().
func parseRecord(line string) (walRecord, bool) {
	f := strings.Split(strings.TrimSuffix(line, "\n"), " ")
	if len(f) != 3 || len(f[0]) != 1 || (f[0][0] != OpInsert && f[0][0] != OpDelete) {
		return walRecord{}, false
	}
	key, kerr := strconv.ParseUint(f[1], 10, 64)
	origin, oerr := strconv.Atoi(f[2])
	rec := walRecord{Op: f[0][0], Key: key, Origin: origin}
	return rec, kerr == nil && oerr == nil && rec.line() == line
}

// readCheckpoint returns the last checkpoint, or ok=false when none was
// ever written.
func (l *walLog) readCheckpoint() (walCheckpoint, bool, error) {
	buf, err := os.ReadFile(l.ckptPath)
	if os.IsNotExist(err) {
		return walCheckpoint{}, false, nil
	}
	if err != nil {
		return walCheckpoint{}, false, fmt.Errorf("serve: checkpoint read: %w", err)
	}
	var ck walCheckpoint
	if err := json.Unmarshal(buf, &ck); err != nil {
		return walCheckpoint{}, false, fmt.Errorf("serve: checkpoint corrupt: %w", err)
	}
	return ck, true, nil
}

// append logs one applied update and fsyncs it — the write-ahead
// guarantee: once the RPC acks, the update survives a process kill.
func (l *walLog) append(rec walRecord) error {
	if _, err := l.f.WriteString(rec.line()); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal fsync: %w", err)
	}
	l.records++
	l.since++
	return nil
}

// maybeCheckpoint writes a verification checkpoint when the cadence is
// due. digest supplies the key-set summary lazily (it costs a sort).
func (l *walLog) maybeCheckpoint(digest func() DigestReply) error {
	if l.since < l.every {
		return nil
	}
	d := digest()
	buf, err := json.Marshal(walCheckpoint{Records: l.records, N: d.N, Sum: d.Sum})
	if err != nil {
		return err
	}
	tmp := l.ckptPath + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("serve: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, l.ckptPath); err != nil {
		return fmt.Errorf("serve: checkpoint rename: %w", err)
	}
	l.since = 0
	return nil
}

func (l *walLog) close() {
	if l != nil && l.f != nil {
		l.f.Close()
	}
}
