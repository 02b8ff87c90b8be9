package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// TestGoldenEncodings pins trace files to the bytes the codec wrote
// while streams were still []Op slices (hashes captured at commit
// 96cb040, the last with the materializing codec): packing the
// in-memory form, the builder's run folding and the guide-table Zipf
// sampler must not move a single byte of any generator's output, for
// any seed, nor of a recorded run's trace.
func TestGoldenEncodings(t *testing.T) {
	sum := func(tr *trace.Trace) (int, string) {
		t.Helper()
		data, err := trace.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		return len(data), hex.EncodeToString(h[:])
	}
	golden := []struct {
		gen  string
		seed uint64
		size int
		hash string
	}{
		{"zipf", 1, 63483, "65067749c97769e0e644a4a84533bc0cabc504565785fb30afb62f59690d784c"},
		{"zipf", 7, 62930, "5b31c12f2f6c16d5e4e9030cf1df77895018638a65e0b5ae8bdca8212ef412c2"},
		{"zipf", 12345, 64426, "703ee5017d45711ddaed361a12fba0c8e302baeb69d45f33dc6db81ea31a58ee"},
		{"migratory", 1, 74038, "dd1268ac3c6ae61c9f30b6b4413a9be57ff9eae6c565aa79343c47bf7e1ce187"},
		{"migratory", 7, 74110, "60fcfd01366467dbd75a139123bc147cc4abb49c18579e0b60c4e54d6b77cb8b"},
		{"migratory", 12345, 74039, "97c014ed045934b1c165b8f59b8e21edbcbf471faabf65355be5a8bb9d8cad88"},
		{"scan", 1, 42205, "ef5652b37ff040719248c641b17fd6caf319ed47fc10cddf9b1eccc17979a6b1"},
		{"scan", 7, 42205, "796c7b0d66a9e154750a1428ba4d1dc04830a0d431952c259689d52f26337116"},
		{"scan", 12345, 42206, "4eed9ebe6f315cb847b7f451165ebe67ac75adcc181efe6c8ccf52b83f5e4223"},
	}
	gens := map[string]func(trace.SynthParams) *trace.Trace{}
	for _, g := range synthGens {
		gens[g.name] = g.gen
	}
	for _, g := range golden {
		size, hash := sum(gens[g.gen](trace.SynthParams{Cores: 4, OpsPerCore: 2000, Seed: g.seed}))
		if size != g.size || hash != g.hash {
			t.Errorf("%s seed %d: %d bytes, sha256 %s; want %d bytes, %s",
				g.gen, g.seed, size, hash, g.size, g.hash)
		}
	}

	// A recorded run: 4-thread x264 under TSO-CC-4-12-3, 1289 ops with
	// the spin-probe runs the RLE exists for.
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	_, tr, err := system.RunRecorded(config.Small(4), tsocc.New(config.C12x3()),
		workloads.ByName("x264").Gen(p), p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const wantOps, wantSize = 1289, 7864
	const wantHash = "87e72b7d63625a72e5fac41c0e3699f8a7da57ce6b142b806bf428ae126f0492"
	if size, hash := sum(tr); tr.Ops() != wantOps || size != wantSize || hash != wantHash {
		t.Errorf("recorded x264: %d ops, %d bytes, sha256 %s; want %d ops, %d bytes, %s",
			tr.Ops(), size, hash, wantOps, wantSize, wantHash)
	}
}
