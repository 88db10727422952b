package analyze

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

// TestAnalyzeReportPinned pins what `xbench analyze` prints for each class
// at Small, generator seed 7: the element inventory (counts, mean trimmed
// text lengths, mixed-content instances, recursion, attributes) and the
// fitted parent/child occurrence distributions. The digests are those of
// `xbench analyze --size=small --gen-seed=7 --class=<class>`.
func TestAnalyzeReportPinned(t *testing.T) {
	for _, tc := range []struct {
		class core.Class
		want  string
	}{
		{core.DCSD, "29e9559c4740f447d4269dfcae8a14244b8030802da0dfe9f874b069b37a452b"},
		{core.DCMD, "8b3be2ea681f5fd7fda2118bf16ab9ce1f545a8bfcb000c29e152b87ef8f1a86"},
		{core.TCSD, "356419d42a795e39d57060f49978929ce45d7f69ddbe52d780d65aaa922b4652"},
		{core.TCMD, "7a2b1d5ae9d6dc2e6645f063c7e6d35e94121f39c6b3dc7d064f91e4efd4dbb0"},
	} {
		t.Run(tc.class.Code(), func(t *testing.T) {
			db, err := gen.Config{Seed: 7}.Generate(tc.class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := report(t, db).WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("report digest = %s, pinned %s", got, tc.want)
			}
		})
	}
}
