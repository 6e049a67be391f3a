package job

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/par"
	"hybridndp/internal/table"
)

// Base row counts, proportional to the IMDB dataset of the paper (≈74 M rows
// over 21 tables; the largest tables hold about half the records). Scale 1.0
// yields ≈3.9 M rows; the paper's full volume corresponds to scale ≈19.
var baseCounts = map[string]int{
	"title":           250_000,
	"cast_info":       1_000_000,
	"movie_info":      600_000,
	"movie_keyword":   450_000,
	"name":            400_000,
	"char_name":       300_000,
	"person_info":     300_000,
	"movie_companies": 260_000,
	"movie_info_idx":  140_000,
	"aka_name":        90_000,
	"aka_title":       36_000,
	"company_name":    23_500,
	"complete_cast":   13_500,
	"keyword":         13_400,
	"movie_link":      3_000,
}

// Dataset is a loaded JOB database.
type Dataset struct {
	DB     *kv.DB
	Cat    *table.Catalog
	Model  hw.Model
	Flash  *flash.Flash
	Scale  float64
	Counts map[string]int
}

// DefaultSeed is the generation seed behind Load; every dataset loaded with
// it (at one scale) is bit-for-bit identical.
const DefaultSeed int64 = 20250325

// Load generates the full JOB dataset at the given scale into a fresh nKV
// instance over simulated flash, flushes it and collects statistics. The
// generation is deterministic for a given scale.
func Load(scale float64, m hw.Model) (*Dataset, error) {
	return LoadSeeded(scale, m, DefaultSeed)
}

// LoadSeeded is Load with an explicit generation seed, threaded through both
// the row generator and the LSM memtable height RNGs. Seed 0 means
// DefaultSeed.
func LoadSeeded(scale float64, m hw.Model, seed int64) (*Dataset, error) {
	if scale <= 0 {
		scale = 0.02
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	fl := flash.New(m, 0)
	lsmCfg := lsm.DefaultConfig()
	lsmCfg.Seed = seed
	db := kv.Open(fl, m, lsmCfg)
	cat := table.NewCatalog(db)
	for _, s := range Schemas() {
		if _, err := cat.CreateTable(s); err != nil {
			return nil, err
		}
	}
	ds := &Dataset{DB: db, Cat: cat, Model: m, Flash: fl, Scale: scale, Counts: map[string]int{}}
	g := &gen{ds: ds, rng: rand.New(rand.NewSource(seed)), bufIdx: map[string]int{}}
	if err := g.run(); err != nil {
		return nil, err
	}
	if err := db.FlushAll(); err != nil {
		return nil, err
	}
	// Scale the device memory reservations (and shared-buffer slot) with the
	// generated dataset so the paper's memory-pressure ratios hold: 17 MB
	// selection and 7 MB join buffers against a 16 GB dataset become
	// proportionally smaller buffers against our scaled-down data. Without
	// this, small test datasets would fit entirely into the device buffers
	// and whole-plan offloading would never hit the wall the paper reports.
	const paperDatasetBytes = 16 << 30
	f := float64(fl.Used()) / float64(paperDatasetBytes)
	if f > 1 {
		f = 1
	}
	scaleB := func(b int64, floor int64) int64 {
		s := int64(float64(b) * f)
		if s < floor {
			s = floor
		}
		return s
	}
	ds.Model.SelBufBytes = scaleB(m.SelBufBytes, 64<<10)
	ds.Model.JoinBufBytes = scaleB(m.JoinBufBytes, 32<<10)
	ds.Model.DeviceNDPBudget = scaleB(m.DeviceNDPBudget, 2<<20)
	ds.Model.SharedBufferSlot = scaleB(m.SharedBufferSlot, 8<<10)
	// Pre-collect statistics so planning does not pay a first-use penalty.
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		t.CollectStats()
	}
	return ds, nil
}

type gen struct {
	ds  *Dataset
	rng *rand.Rand

	// Generation is two-phase: phase 1 draws every random value from the
	// single rng stream in the exact order the sequential loader used and
	// buffers the rows per table; phase 2 inserts the buffered tables across
	// worker goroutines. Tables are independent — each owns its LSM trees,
	// and memtable skiplist RNGs derive per-tree from the base seed — so the
	// loaded contents are bit-for-bit identical to a sequential load
	// regardless of worker interleaving; only wall-clock time changes.
	buf    []*tableBuf
	bufIdx map[string]int // table name → position in buf
}

// tableBuf holds one table's generated rows awaiting insertion.
type tableBuf struct {
	name string
	rows [][]table.Value
}

func (g *gen) n(tbl string) int {
	base := baseCounts[tbl]
	n := int(float64(base) * g.ds.Scale)
	if n < 64 {
		n = 64
	}
	return n
}

// zipfID draws a 1-based id from [1,n] skewed toward low ids, modelling the
// popularity skew of IMDB foreign keys.
func (g *gen) zipfID(n int) int32 {
	u := g.rng.Float64()
	return 1 + int32(math.Pow(u, 1.7)*float64(n-1))
}

func (g *gen) uniformID(n int) int32 { return 1 + int32(g.rng.Intn(n)) }

// insert buffers one generated row; the actual encoding and LSM insertion
// happens in insertTables, in parallel across tables.
func (g *gen) insert(tbl string, vals ...table.Value) error {
	i, ok := g.bufIdx[tbl]
	if !ok {
		i = len(g.buf)
		g.bufIdx[tbl] = i
		g.buf = append(g.buf, &tableBuf{name: tbl})
	}
	g.buf[i].rows = append(g.buf[i].rows, vals)
	return nil
}

// insertTables drains the buffered tables across min(GOMAXPROCS, tables)
// worker goroutines, largest table first so the long poles start early. Rows
// within a table insert in generation order; interleaving across tables only
// reorders the shared flash FileID sequence, which nothing virtual-time
// visible observes (FlushAll already flushes families in map order).
func (g *gen) insertTables() error {
	order := make([]int, len(g.buf))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(g.buf[order[a]].rows) > len(g.buf[order[b]].rows)
	})
	errs := make([]error, len(order))
	par.ForEach(runtime.GOMAXPROCS(0), len(order), func(i int) {
		errs[i] = g.insertTable(g.buf[order[i]])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) insertTable(b *tableBuf) error {
	t, err := g.ds.Cat.Table(b.name)
	if err != nil {
		return err
	}
	for _, vals := range b.rows {
		if err := t.Insert(vals); err != nil {
			return fmt.Errorf("job: inserting into %s: %v", b.name, err)
		}
	}
	b.rows = nil
	return nil
}

func iv(v int32) table.Value  { return table.IntVal(v) }
func sv(s string) table.Value { return table.StrVal(s) }
func nv() table.Value         { return table.NullVal() }

func (g *gen) run() error {
	if err := g.dims(); err != nil {
		return err
	}
	steps := []func() error{
		g.titles, g.names, g.charNames, g.companyNames, g.keywords,
		g.movieCompanies, g.movieInfo, g.movieInfoIdx, g.movieKeyword,
		g.castInfo, g.personInfo, g.akaNames, g.akaTitles,
		g.completeCast, g.movieLinks,
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	if err := g.insertTables(); err != nil {
		return err
	}
	for tbl := range baseCounts {
		t, err := g.ds.Cat.Table(tbl)
		if err != nil {
			return err
		}
		g.ds.Counts[tbl] = int(t.RowCount())
	}
	return nil
}

func (g *gen) dims() error {
	for i, k := range CompanyTypes {
		if err := g.insert("company_type", iv(int32(i+1)), sv(k)); err != nil {
			return err
		}
	}
	for i, k := range KindTypes {
		if err := g.insert("kind_type", iv(int32(i+1)), sv(k)); err != nil {
			return err
		}
	}
	for i, k := range LinkTypes {
		if err := g.insert("link_type", iv(int32(i+1)), sv(k)); err != nil {
			return err
		}
	}
	for i, k := range RoleTypes {
		if err := g.insert("role_type", iv(int32(i+1)), sv(k)); err != nil {
			return err
		}
	}
	for i, k := range CompCastTypes {
		if err := g.insert("comp_cast_type", iv(int32(i+1)), sv(k)); err != nil {
			return err
		}
	}
	for i := 1; i <= NumInfoTypes; i++ {
		name := fmt.Sprintf("info_%03d", i)
		if i <= len(InfoTypes) {
			name = InfoTypes[i-1]
		}
		if err := g.insert("info_type", iv(int32(i)), sv(name)); err != nil {
			return err
		}
	}
	return nil
}

var titleWords = []string{
	"Champion", "Money", "Freddy", "Jason", "Kung Fu", "Panda",
	"Dark", "Night", "Star", "Gold", "Dragon", "Shadow",
}

func (g *gen) titles() error {
	n := g.n("title")
	for i := 1; i <= n; i++ {
		title := fmt.Sprintf("movie %07d", i)
		if g.rng.Intn(10) == 0 {
			title = fmt.Sprintf("%s %07d", titleWords[g.rng.Intn(len(titleWords))], i)
		}
		// kind skew: most titles are movies or episodes.
		kind := int32(1)
		switch r := g.rng.Intn(100); {
		case r < 55:
			kind = 1 // movie
		case r < 70:
			kind = 6 // episode
		case r < 80:
			kind = 4 // tv series
		default:
			kind = g.uniformID(len(KindTypes))
		}
		// production year skewed toward recent decades.
		year := table.Value(nv())
		if g.rng.Intn(20) != 0 {
			y := 2019 - int32(math.Pow(g.rng.Float64(), 2.5)*120)
			year = iv(y)
		}
		var episode table.Value = nv()
		if kind == 6 {
			episode = iv(int32(g.rng.Intn(500)))
		}
		if err := g.insert("title", iv(int32(i)), sv(title), iv(kind), year, episode); err != nil {
			return err
		}
	}
	return nil
}

var nameWords = []string{"Tim", "Bob", "Ann", "Eva", "Max", "Lee", "Kim", "Sam"}

func (g *gen) names() error {
	n := g.n("name")
	for i := 1; i <= n; i++ {
		letter := string(rune('A' + g.rng.Intn(26)))
		nm := fmt.Sprintf("%s name %06d", letter, i)
		if g.rng.Intn(20) == 0 {
			nm = fmt.Sprintf("%s %s %06d", letter, nameWords[g.rng.Intn(len(nameWords))], i)
		}
		var gender table.Value
		switch r := g.rng.Intn(100); {
		case r < 45:
			gender = sv("m")
		case r < 80:
			gender = sv("f")
		default:
			gender = nv()
		}
		pcode := table.Value(nv())
		if g.rng.Intn(3) != 0 {
			pcode = sv(fmt.Sprintf("%c%d", letter[0], g.rng.Intn(1000)))
		}
		if err := g.insert("name", iv(int32(i)), sv(nm), gender, pcode); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) charNames() error {
	n := g.n("char_name")
	for i := 1; i <= n; i++ {
		if err := g.insert("char_name", iv(int32(i)), sv(fmt.Sprintf("character %06d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) companyNames() error {
	n := g.n("company_name")
	for i := 1; i <= n; i++ {
		nm := fmt.Sprintf("company %05d", i)
		switch g.rng.Intn(20) {
		case 0:
			nm = fmt.Sprintf("Warner company %05d", i)
		case 1:
			nm = fmt.Sprintf("Film studio %05d", i)
		case 2:
			nm = fmt.Sprintf("Polygram %05d", i)
		}
		// Country skew: US-heavy, as in IMDB.
		var cc table.Value
		switch r := g.rng.Intn(100); {
		case r < 40:
			cc = sv("[us]")
		case r < 92:
			cc = sv(CountryCodes[1+g.rng.Intn(len(CountryCodes)-1)])
		default:
			cc = nv()
		}
		if err := g.insert("company_name", iv(int32(i)), sv(nm), cc); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) keywords() error {
	n := g.n("keyword")
	for i := 1; i <= n; i++ {
		kw := fmt.Sprintf("kw %05d", i)
		if i <= len(NamedKeywords) {
			kw = NamedKeywords[i-1]
		}
		if err := g.insert("keyword", iv(int32(i)), sv(kw)); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) movieCompanies() error {
	n := g.n("movie_companies")
	nTitle := g.n("title")
	nComp := g.n("company_name")
	for i := 1; i <= n; i++ {
		var note table.Value
		switch r := g.rng.Intn(100); {
		case r < 30:
			note = nv()
		case r < 45:
			note = sv(CompanyNotes[g.rng.Intn(3)]) // the three hot patterns
		default:
			note = sv(CompanyNotes[g.rng.Intn(len(CompanyNotes))])
		}
		ctype := int32(1)
		if g.rng.Intn(100) < 45 {
			ctype = 2 // distributors
		} else if g.rng.Intn(10) == 0 {
			ctype = g.uniformID(len(CompanyTypes))
		}
		if err := g.insert("movie_companies", iv(int32(i)),
			iv(g.zipfID(nTitle)), iv(g.zipfID(nComp)), iv(ctype), note); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) movieInfo() error {
	n := g.n("movie_info")
	nTitle := g.n("title")
	for i := 1; i <= n; i++ {
		var itID int32
		var info string
		switch r := g.rng.Intn(100); {
		case r < 25:
			itID = InfoTypeID("genres")
			info = Genres[g.rng.Intn(len(Genres))]
		case r < 45:
			itID = InfoTypeID("languages")
			info = Languages[g.rng.Intn(len(Languages))]
		case r < 65:
			itID = InfoTypeID("release dates")
			info = fmt.Sprintf("%s:%d", Countries[g.rng.Intn(len(Countries))], 1950+g.rng.Intn(70))
		case r < 75:
			itID = InfoTypeID("budget")
			info = fmt.Sprintf("$%d", 1000*(1+g.rng.Intn(200000)))
		case r < 85:
			itID = InfoTypeID("countries")
			info = Countries[g.rng.Intn(len(Countries))]
		default:
			itID = int32(13 + g.rng.Intn(NumInfoTypes-13))
			info = fmt.Sprintf("val %05d", g.rng.Intn(10000))
		}
		var note table.Value = nv()
		if g.rng.Intn(4) == 0 {
			note = sv(fmt.Sprintf("note %04d", g.rng.Intn(1000)))
		}
		if err := g.insert("movie_info", iv(int32(i)),
			iv(g.zipfID(nTitle)), iv(itID), sv(info), note); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) movieInfoIdx() error {
	n := g.n("movie_info_idx")
	nTitle := g.n("title")
	i := 1
	// Exactly 250 top-250 and 10 bottom-10 entries (scaled floor of 10).
	top := 250
	if top > nTitle {
		top = nTitle
	}
	for r := 1; r <= top && i <= n; r++ {
		if err := g.insert("movie_info_idx", iv(int32(i)),
			iv(int32(r)), iv(InfoTypeID("top_250_rank")), sv(fmt.Sprintf("%d", r))); err != nil {
			return err
		}
		i++
	}
	for r := 1; r <= 10 && i <= n; r++ {
		if err := g.insert("movie_info_idx", iv(int32(i)),
			iv(g.uniformID(nTitle)), iv(InfoTypeID("bottom_10_rank")), sv(fmt.Sprintf("%d", r))); err != nil {
			return err
		}
		i++
	}
	for ; i <= n; i++ {
		var itID int32
		var info string
		if g.rng.Intn(2) == 0 {
			itID = InfoTypeID("rating")
			info = fmt.Sprintf("%d.%d", 1+g.rng.Intn(9), g.rng.Intn(10))
		} else {
			itID = InfoTypeID("votes")
			info = fmt.Sprintf("%d", 5+g.rng.Intn(500000))
		}
		if err := g.insert("movie_info_idx", iv(int32(i)),
			iv(g.zipfID(nTitle)), iv(itID), sv(info)); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) movieKeyword() error {
	n := g.n("movie_keyword")
	nTitle := g.n("title")
	nKw := g.n("keyword")
	for i := 1; i <= n; i++ {
		if err := g.insert("movie_keyword", iv(int32(i)),
			iv(g.zipfID(nTitle)), iv(g.zipfID(nKw))); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) castInfo() error {
	n := g.n("cast_info")
	nTitle := g.n("title")
	nName := g.n("name")
	nChar := g.n("char_name")
	for i := 1; i <= n; i++ {
		var note table.Value
		switch r := g.rng.Intn(100); {
		case r < 45:
			note = nv()
		case r < 65:
			note = sv(CastNotes[g.rng.Intn(3)])
		default:
			note = sv(CastNotes[g.rng.Intn(len(CastNotes))])
		}
		var prole table.Value = nv()
		if g.rng.Intn(3) == 0 {
			prole = iv(g.zipfID(nChar))
		}
		var order table.Value = nv()
		if g.rng.Intn(2) == 0 {
			order = iv(int32(1 + g.rng.Intn(50)))
		}
		role := g.uniformID(len(RoleTypes))
		if g.rng.Intn(100) < 55 { // actors/actresses dominate
			role = int32(1 + g.rng.Intn(2))
		}
		if err := g.insert("cast_info", iv(int32(i)),
			iv(g.zipfID(nName)), iv(g.zipfID(nTitle)), prole, note, order, iv(role)); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) personInfo() error {
	n := g.n("person_info")
	nName := g.n("name")
	for i := 1; i <= n; i++ {
		itID := InfoTypeID("mini biography")
		if g.rng.Intn(3) != 0 {
			itID = int32(7 + g.rng.Intn(3)) // bio, trivia, height
		}
		var note table.Value = nv()
		if g.rng.Intn(5) == 0 {
			note = sv("Volker Boehm")
		}
		if err := g.insert("person_info", iv(int32(i)),
			iv(g.zipfID(nName)), iv(itID), sv(fmt.Sprintf("pi %05d", g.rng.Intn(100000))), note); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) akaNames() error {
	n := g.n("aka_name")
	nName := g.n("name")
	for i := 1; i <= n; i++ {
		if err := g.insert("aka_name", iv(int32(i)),
			iv(g.zipfID(nName)), sv(fmt.Sprintf("aka %06d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) akaTitles() error {
	n := g.n("aka_title")
	nTitle := g.n("title")
	for i := 1; i <= n; i++ {
		if err := g.insert("aka_title", iv(int32(i)),
			iv(g.zipfID(nTitle)), sv(fmt.Sprintf("aka title %06d", i)), iv(g.uniformID(len(KindTypes)))); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) completeCast() error {
	n := g.n("complete_cast")
	nTitle := g.n("title")
	for i := 1; i <= n; i++ {
		if err := g.insert("complete_cast", iv(int32(i)),
			iv(g.zipfID(nTitle)), iv(int32(1+g.rng.Intn(2))), iv(int32(3+g.rng.Intn(2)))); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) movieLinks() error {
	n := g.n("movie_link")
	nTitle := g.n("title")
	// Linked movies are the popular ones (sequels, remakes of hits): draw
	// from the hottest 2% of titles. This reproduces the paper's Exp 4
	// characteristic where joining movie_link against movie_keyword fans out
	// massively (≈8.5 M results from a 4.5 M-row probe side).
	hot := nTitle / 50
	if hot < 8 {
		hot = 8
	}
	for i := 1; i <= n; i++ {
		if err := g.insert("movie_link", iv(int32(i)),
			iv(g.zipfID(hot)), iv(g.zipfID(hot)), iv(g.uniformID(len(LinkTypes)))); err != nil {
			return err
		}
	}
	return nil
}
