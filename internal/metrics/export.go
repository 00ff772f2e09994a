package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
)

// Manifest is the self-describing header of an exported metrics series:
// everything needed to reproduce or audit the run the series came from.
type Manifest struct {
	Type string `json:"type"` // always "manifest"
	// Tool identifies the producing command (itpsim, itpsweep, ...).
	Tool string `json:"tool"`
	// Git is the VCS revision baked into the binary (via buildinfo), or
	// "unknown" for non-module builds and tests.
	Git string `json:"git"`
	// Time is the wall-clock start of the run (RFC3339); optional so
	// deterministic tests can omit it.
	Time string `json:"time,omitempty"`
	// ConfigHash is the SHA-256 of the effective machine configuration.
	ConfigHash string `json:"config_hash"`
	// WindowInstr is the sampler's window size in retired instructions.
	WindowInstr uint64 `json:"window_instr"`
	// Policies names the replacement policies in effect (stlb/l2c/llc).
	Policies map[string]string `json:"policies,omitempty"`
	// Workloads lists the workload labels the series covers.
	Workloads []string `json:"workloads,omitempty"`
	// Extra carries tool-specific fields (sweep parameter, seeds, ...).
	Extra map[string]string `json:"extra,omitempty"`
}

// ConfigHash hashes an effective configuration blob (normally the
// machine config's pretty JSON) into the manifest's hex digest.
func ConfigHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// windowLine is the on-disk shape of one window record: typed, and tagged
// with the job label so multi-job exports (sweeps, batches) share a file.
type windowLine struct {
	Type string `json:"type"` // always "window"
	Job  string `json:"job,omitempty"`
	*WindowRecord
}

// JSONL writes a metrics series as JSON lines: one manifest line per
// run, then one line per closed window. Safe for concurrent writers (a
// sweep's parallel jobs share one file).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error // the first write error
}

// NewJSONL wraps w in a line-oriented exporter.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// encode writes one line, keeping the first write error for Err.
func (j *JSONL) encode(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.enc.Encode(v)
	if j.err == nil {
		j.err = err
	}
	return err
}

// Manifest writes the run-describing header line.
func (j *JSONL) Manifest(m Manifest) error {
	m.Type = "manifest"
	return j.encode(m)
}

// Window writes one window record tagged with the job label.
func (j *JSONL) Window(job string, rec *WindowRecord) error {
	return j.encode(windowLine{Type: "window", Job: job, WindowRecord: rec})
}

// Err returns the first error any write to the export hit, so a series
// that WindowSink stopped writing mid-run still fails the run at its end.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// WindowSink adapts Window into the Windows.SetSink callback shape,
// discarding write errors after the first (the run should not die on a
// full disk mid-flight; the caller checks Err once the batch is done).
func (j *JSONL) WindowSink(job string, onErr func(error)) func(*WindowRecord) {
	var failed bool
	return func(rec *WindowRecord) {
		if failed {
			return
		}
		if err := j.Window(job, rec); err != nil {
			failed = true
			if onErr != nil {
				onErr(err)
			}
		}
	}
}
