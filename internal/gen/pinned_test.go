package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xbench/internal/core"
)

// corpusDigest is SHA-256 over every document's name followed by its
// bytes, in database order.
func corpusDigest(db *core.Database) string {
	h := sha256.New()
	for _, d := range db.Docs {
		h.Write([]byte(d.Name))
		h.Write(d.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedCorporaPinned pins the default-configuration databases of
// every class at Small and Normal, generator seed 7, byte for byte: the
// documents that are generated in parallel land in their index slots and
// come out as the sequential generator wrote them. Under -race it is also
// the check that no generator shares mutable state across documents.
func TestGeneratedCorporaPinned(t *testing.T) {
	for _, tc := range []struct {
		class core.Class
		size  core.Size
		want  string
	}{
		{core.DCMD, core.Small, "cf644c8aeaae37254cc226f4a38199f97964ac7271c03d7fc2049e663206bf01"},
		{core.DCMD, core.Normal, "274ab3fe9fdadfe7532ba048f8df86a70342869503d17f72b32ba0fa953cf26c"},
		{core.TCMD, core.Small, "390bd84646d85301ff2e5f94a540458ae0714b3a0ce02b7ca2c90e07a8eb8d7e"},
		{core.TCMD, core.Normal, "5817b30e269dee7041f612dad8d388b33f27285c9c0f2bef3c8ad8abcde0d515"},
		{core.DCSD, core.Small, "f33dbbfbdb74a9de632b997052149cadddbd9b388a21c77b644a66ee6b478edc"},
		{core.DCSD, core.Normal, "cae078a34ec52d22c53b40b7b7ddb10c0afab7978059f98cac6db1d8241c8eda"},
		{core.TCSD, core.Small, "e3a0e01eeaa5de1c87ba6bacf26598ece1d9133c75d518202de3c4fe1c01b0ef"},
		{core.TCSD, core.Normal, "5e11bd228b87caf6e5e62b351015b3ba5adbfec8b36c1cb1cb24c40677e7f5d1"},
	} {
		t.Run(tc.class.Code()+"/"+tc.size.String(), func(t *testing.T) {
			db, err := Config{Seed: 7}.Generate(tc.class, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			if got := corpusDigest(db); got != tc.want {
				t.Errorf("corpus digest = %s, pinned %s", got, tc.want)
			}
		})
	}
}
