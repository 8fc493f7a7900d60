package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

// goldenJSON maps document keys to the SHA-256 of their canonical bytes,
// taken at -seed 1 from cold, untraced, local, one-worker runs
// (`go run . golden` regenerates it).
//
//go:embed golden.json
var goldenJSON []byte

// producedDoc is one output document a run produced, by key and digest.
type producedDoc struct {
	key     string
	digest  [32]byte
	sampled bool
}

// sampledPos reports whether stream position i is checked against a
// reference: positions 0, 1, 2, 4, 8, …, so a run of any length checks a
// logarithmic number of documents spread over the whole run.
func sampledPos(i int) bool { return i&(i-1) == 0 }

func fmtScale(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// runKey names the canonical document of one configuration of an
// experiment set (ids in paper order, nil for the full registry).
func runKey(ids []string, c core.Config) string {
	return fmt.Sprintf("run;ids=%s;scale=%s;seed=%d", strings.Join(ids, ","), fmtScale(c.Scale), c.Seed)
}

// sweepKey names the canonical sweep document of an experiment set over
// configurations in request order.
func sweepKey(ids []string, configs []core.Config) string {
	parts := make([]string, len(configs))
	for i, c := range configs {
		parts[i] = fmtScale(c.Scale) + ":" + strconv.FormatUint(c.Seed, 10)
	}
	return fmt.Sprintf("sweep;ids=%s;configs=%s", strings.Join(ids, ","), strings.Join(parts, ","))
}

// parseKey inverts runKey and sweepKey.
func parseKey(key string) (sweep bool, ids []string, configs []core.Config, err error) {
	fields := map[string]string{}
	parts := strings.Split(key, ";")
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return false, nil, nil, fmt.Errorf("malformed key %q", key)
		}
		fields[k] = v
	}
	if v := fields["ids"]; v != "" {
		ids = strings.Split(v, ",")
	}
	switch parts[0] {
	case "run":
		c, err := parseConfig(fields["scale"], fields["seed"])
		return false, ids, []core.Config{c}, err
	case "sweep":
		for _, cs := range strings.Split(fields["configs"], ",") {
			scale, seed, _ := strings.Cut(cs, ":")
			c, err := parseConfig(scale, seed)
			if err != nil {
				return false, nil, nil, err
			}
			configs = append(configs, c)
		}
		return true, ids, configs, nil
	}
	return false, nil, nil, fmt.Errorf("malformed key %q", key)
}

func parseConfig(scale, seed string) (core.Config, error) {
	sc, err := strconv.ParseFloat(scale, 64)
	if err != nil {
		return core.Config{}, err
	}
	sd, err := strconv.ParseUint(seed, 10, 64)
	return core.Config{Scale: sc, Seed: sd}, err
}

// reference computes a key's document the plainest way the program can: a
// cold, untraced, local run on one worker.
func reference(key string) ([]byte, error) {
	sweep, ids, configs, err := parseKey(key)
	if err != nil {
		return nil, err
	}
	local := core.RunConfig{Workers: 1}
	if sweep {
		sr, err := core.RunSweep(core.Sweep{IDs: ids, Configs: configs}, local, nil)
		if err != nil {
			return nil, err
		}
		return report.MarshalSweep(sr)
	}
	results, err := core.RunIDsConfig(ids, configs[0], local, nil)
	if err != nil {
		return nil, err
	}
	return report.MarshalResults(results, configs[0])
}

func loadGolden() (map[string][32]byte, error) {
	var hexes map[string]string
	if err := json.Unmarshal(goldenJSON, &hexes); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	out := make(map[string][32]byte, len(hexes))
	for k, h := range hexes {
		var d [32]byte
		if n, err := hex.Decode(d[:], []byte(h)); err != nil || n != len(d) {
			return nil, fmt.Errorf("golden.json: bad digest for %q", k)
		}
		out[k] = d
	}
	return out, nil
}

// verify checks every produced document after the measured phase: sampled
// keys against their reference (golden.json when it holds the key, else a
// fresh reference run), every other document against the first document
// produced under its key. It returns the documents checked and how many
// did not match.
func (b *bench) verify(logw io.Writer) (attempted, failed int, err error) {
	gold, err := loadGolden()
	if err != nil {
		return 0, 0, err
	}
	first := map[string][32]byte{}
	refs := map[string][32]byte{}
	var recompute []string
	for _, d := range b.docs {
		if _, ok := first[d.key]; !ok {
			first[d.key] = d.digest
		}
		if _, ok := refs[d.key]; !d.sampled || ok {
			continue
		}
		if g, ok := gold[d.key]; ok {
			refs[d.key] = g
			continue
		}
		refs[d.key] = [32]byte{}
		recompute = append(recompute, d.key)
	}
	start := time.Now()
	for _, key := range recompute {
		doc, err := reference(key)
		if err != nil {
			return 0, 0, fmt.Errorf("reference for %s: %w", key, err)
		}
		refs[key] = sha256.Sum256(doc)
	}
	fmt.Fprintf(logw, "bench: %d references from golden.json, %d recomputed in %v\n",
		len(refs)-len(recompute), len(recompute), time.Since(start).Round(time.Millisecond))
	for _, d := range b.docs {
		want, ok := refs[d.key]
		if !ok {
			want = first[d.key]
		}
		if d.digest != want {
			failed++
			fmt.Fprintf(logw, "bench: document %s does not match its reference\n", d.key)
		}
	}
	return len(b.docs), failed, nil
}

// makeGolden computes the reference digests of every sampled document of
// every workload at seed 1, up to stream position n.
func makeGolden(n int, logw io.Writer) ([]byte, error) {
	keys := map[string]bool{}
	for _, w := range workloads {
		for _, k := range w.sampledKeys(1, fullSize, n) {
			keys[k] = true
		}
	}
	sortedKeys := make([]string, 0, len(keys))
	for k := range keys {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	out := make(map[string]string, len(keys))
	for i, k := range sortedKeys {
		doc, err := reference(k)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", k, err)
		}
		d := sha256.Sum256(doc)
		out[k] = hex.EncodeToString(d[:])
		fmt.Fprintf(logw, "golden: %d/%d %s\n", i+1, len(sortedKeys), k)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
