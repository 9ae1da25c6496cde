package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"itr/internal/program"
)

// suiteDigests pins every Suite() program: SHA-256 over the entry PC and
// every instruction field, in image order. Any change to the synthesizer's
// layout, instruction selection or RNG consumption moves a digest, and with
// it every artifact built on the programs.
var suiteDigests = map[string]string{
	"bzip":    "02e7f7a31d039ccea0bdfbe06d370e838ea6d33a07041636bd78408546a21540",
	"gap":     "56e7f8fc362d5083febb37e7a250348cd66b3ded9c31124a441ee5752a434bc1",
	"gcc":     "00763038b820e99cf29f9ab00e98e0a8e61e2729da7baf3d9d3228c284150792",
	"gzip":    "56e05bf9e5901f424f28f735c6e06e53c3edf5c0057266e8a0140c2184e5b4d8",
	"parser":  "3883c90ea210bbf0352421d6d855294a6ef8b44a4d1f9ccabbd8c1c941b45d97",
	"perl":    "1925db376711c682db0d6e4a28a0b444786120d9eaa0b88799ef55df10f06b3e",
	"twolf":   "eae33cf65e4fdc9b1cae471fdeb17d63d1e7ecdc470cacfc40add67be0c5508f",
	"vortex":  "e695df8cb09404bb72e38b52ca8d0d7de2f81319124b86220a2f9ee13ef84a9c",
	"vpr":     "7d4a4a10a9c24855acd209bd03aaa2e4380faf1b56ffb28647738fce474cd0e3",
	"applu":   "03049829be524cb3cee754a6fee68b3ec92e4813735fb92b3f8dc767ece15201",
	"apsi":    "4b40c8977e5037804112e57c03b0e0d13e8aba89a30e70f2be234dd651881ec1",
	"art":     "1d304def29cd8bc8b1432b57e8a897060b93e5d2558361f74c12dddb68bc8761",
	"equake":  "9ea1205d440f9658ce8df61c782fb38b387bd62c5dc7495f8a66fede7dd8e0ae",
	"mgrid":   "2fd4d1048393a385b4d897d9b0381e051e65f2329bada3863c2699d40aab0545",
	"swim":    "cac66e1b0a5eab14e0734e6eb9ca85abb9fcb5edeb09eab3999b5088413986e6",
	"wupwise": "9da8efa6d4a30ed1fa203a54c2ee263f4b44c76c0e8abb88275e986116aed790",
}

func programDigest(p *program.Program) string {
	h := sha256.New()
	var buf [11]byte
	binary.LittleEndian.PutUint64(buf[:8], p.Entry)
	h.Write(buf[:8])
	for _, in := range p.Insts {
		buf[0], buf[1], buf[2], buf[3], buf[4] = byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), in.Shamt
		binary.LittleEndian.PutUint16(buf[5:7], in.Imm)
		binary.LittleEndian.PutUint32(buf[7:11], in.Target)
		h.Write(buf[:11])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSuiteProgramsGolden(t *testing.T) {
	suite := Suite()
	if len(suite) != len(suiteDigests) {
		t.Fatalf("suite has %d programs, golden table %d", len(suite), len(suiteDigests))
	}
	for _, p := range suite {
		prog, err := Build(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := programDigest(prog); got != suiteDigests[p.Name] {
			t.Errorf("%s: digest %s, want %s (%d instructions)", p.Name, got, suiteDigests[p.Name], prog.Len())
		}
	}
}
