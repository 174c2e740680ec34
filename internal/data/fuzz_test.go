package data

import "testing"

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. CSV data is untrusted
// input: the chunked parser must never panic, and must return the same
// table as readCSVLegacy — or the same error wherever legacy errors — at
// the default chunk size and at a one-byte chunk size (a chunk per
// record, the maximum-fragmentation case).
func FuzzReadCSV(f *testing.F) {
	for _, input := range ingestGoldens {
		f.Add(input)
	}
	grid := []ingestSetting{{}, {chunk: 1}}
	f.Fuzz(func(t *testing.T, input string) {
		requireIngestMatchesLegacy(t, input, "fuzz", grid)
	})
}
