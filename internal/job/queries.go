package job

import (
	"hybridndp/internal/expr"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
)

// Queries returns all 113 JOB queries (33 groups, variants a..f), ported to
// the synthetic dataset's value domains. Structure (tables and join graph)
// follows the original benchmark; predicate constants are adapted so the
// selectivity character (highly selective dimension filters, moderate fact
// filters, LIKE patterns over notes and names) carries over.
func Queries() []*query.Query {
	var qs []*query.Query
	add := func(more ...*query.Query) { qs = append(qs, more...) }
	add(group1()...)
	add(group2()...)
	add(group3()...)
	add(group4()...)
	add(group5()...)
	add(group6()...)
	add(group7()...)
	add(group8()...)
	add(group9()...)
	add(group10()...)
	add(group11()...)
	add(group12()...)
	add(group13()...)
	add(group14()...)
	add(group15()...)
	add(group16()...)
	add(group17()...)
	add(group18()...)
	add(group19()...)
	add(group20()...)
	add(group21()...)
	add(group22()...)
	add(group23()...)
	add(group24()...)
	add(group25()...)
	add(group26()...)
	add(group27()...)
	add(group28()...)
	add(group29()...)
	add(group30()...)
	add(group31()...)
	add(group32()...)
	add(group33()...)
	return qs
}

// QueryByName returns one query ("8c", "17b", ...), or nil.
func QueryByName(name string) *query.Query {
	for _, q := range Queries() {
		if q.Name == name {
			return q
		}
	}
	return nil
}

func group1() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("ct:company_type", "it:info_type", "mi_idx:movie_info_idx", "t:title", "mc:movie_companies").
			j("ct.id=mc.company_type_id", "t.id=mc.movie_id", "t.id=mi_idx.movie_id",
				"mc.movie_id=mi_idx.movie_id", "it.id=mi_idx.info_type_id").
			f("ct", eqs("kind", "production companies")).
			minOf("mc.note", "t.title", "t.production_year")
	}
	a := base("1a").
		f("it", eqs("info", "top_250_rank")).
		f("mc", and(notlike("note", "%(as Metro-Goldwyn-Mayer Pictures)%"),
			or(like("note", "%(co-production)%"), like("note", "%(presents)%")))).
		build()
	b := base("1b").
		f("it", eqs("info", "bottom_10_rank")).
		f("mc", notlike("note", "%(as Metro-Goldwyn-Mayer Pictures)%")).
		f("t", between("production_year", 2005, 2010)).
		build()
	c := base("1c").
		f("it", eqs("info", "top_250_rank")).
		f("mc", like("note", "%(co-production)%")).
		f("t", gti("production_year", 2010)).
		build()
	d := base("1d").
		f("it", eqs("info", "bottom_10_rank")).
		f("mc", notlike("note", "%(as Metro-Goldwyn-Mayer Pictures)%")).
		build()
	return []*query.Query{a, b, c, d}
}

func group2() []*query.Query {
	base := func(name, country string) *query.Query {
		return nq(name).
			t("cn:company_name", "k:keyword", "mc:movie_companies", "mk:movie_keyword", "t:title").
			j("cn.id=mc.company_id", "mc.movie_id=t.id", "t.id=mk.movie_id",
				"mk.keyword_id=k.id", "mc.movie_id=mk.movie_id").
			f("cn", eqs("country_code", country)).
			f("k", eqs("keyword", "character-name-in-title")).
			minOf("t.title").
			build()
	}
	return []*query.Query{
		base("2a", "[de]"), base("2b", "[se]"), base("2c", "[jp]"), base("2d", "[us]"),
	}
}

func group3() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("k:keyword", "mi:movie_info", "mk:movie_keyword", "t:title").
			j("t.id=mi.movie_id", "t.id=mk.movie_id", "mk.movie_id=mi.movie_id", "k.id=mk.keyword_id").
			f("k", like("keyword", "%sequel%")).
			minOf("t.title")
	}
	a := base("3a").
		f("mi", ins("info", "Sweden", "Germany", "Denmark", "Japan")).
		f("t", gti("production_year", 2005)).build()
	b := base("3b").
		f("mi", ins("info", "Germany", "Sweden")).
		f("t", gti("production_year", 2010)).build()
	c := base("3c").
		f("mi", ins("info", "Sweden", "Germany", "Denmark", "Japan", "Italy", "USA")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group4() []*query.Query {
	base := func(name, rating string, year int32) *query.Query {
		return nq(name).
			t("it:info_type", "k:keyword", "mi_idx:movie_info_idx", "mk:movie_keyword", "t:title").
			j("t.id=mi_idx.movie_id", "t.id=mk.movie_id", "mk.movie_id=mi_idx.movie_id",
				"k.id=mk.keyword_id", "it.id=mi_idx.info_type_id").
			f("it", eqs("info", "rating")).
			f("k", like("keyword", "%sequel%")).
			f("mi_idx", gts("info", rating)).
			f("t", gti("production_year", year)).
			minOf("mi_idx.info", "t.title").
			build()
	}
	return []*query.Query{
		base("4a", "5.0", 2005), base("4b", "9.0", 2010), base("4c", "2.0", 1990),
	}
}

func group5() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("ct:company_type", "it:info_type", "mc:movie_companies", "mi:movie_info", "t:title").
			j("ct.id=mc.company_type_id", "t.id=mc.movie_id", "t.id=mi.movie_id",
				"mc.movie_id=mi.movie_id", "it.id=mi.info_type_id").
			minOf("t.title")
	}
	a := base("5a").
		f("ct", eqs("kind", "production companies")).
		f("mc", like("note", "%(theatrical)%")).
		f("mi", ins("info", "Drama", "Horror")).
		f("t", gti("production_year", 2005)).build()
	b := base("5b").
		f("ct", eqs("kind", "production companies")).
		f("mc", like("note", "%(VHS)%")).
		f("mi", ins("info", "Horror", "Sci-Fi")).
		f("t", gti("production_year", 2010)).build()
	c := base("5c").
		f("ct", eqs("kind", "production companies")).
		f("mc", notlike("note", "%(TV)%")).
		f("mi", ins("info", "Drama", "Horror", "Comedy", "Action")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group6() []*query.Query {
	base := func(name, kw, nameLike string, year int32) *query.Query {
		b := nq(name).
			t("ci:cast_info", "k:keyword", "mk:movie_keyword", "n:name", "t:title").
			j("k.id=mk.keyword_id", "t.id=mk.movie_id", "t.id=ci.movie_id",
				"ci.movie_id=mk.movie_id", "n.id=ci.person_id").
			f("k", eqs("keyword", kw)).
			minOf("k.keyword", "n.name", "t.title")
		if nameLike != "" {
			b.f("n", like("name", nameLike))
		}
		if year > 0 {
			b.f("t", gti("production_year", year))
		}
		return b.build()
	}
	return []*query.Query{
		base("6a", "marvel-cinematic-universe", "%Sam%", 2010),
		base("6b", "superhero", "%Tim%", 2014),
		base("6c", "marvel-cinematic-universe", "", 2014),
		base("6d", "superhero", "%Bob%", 2000),
		base("6e", "marvel-cinematic-universe", "%Sam%", 0),
		base("6f", "sequel", "", 1990),
	}
}

func group7() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "ci:cast_info", "it:info_type", "lt:link_type",
				"ml:movie_link", "n:name", "pi:person_info", "t:title").
			j("an.person_id=n.id", "n.id=pi.person_id", "ci.person_id=n.id",
				"t.id=ci.movie_id", "ml.linked_movie_id=t.id", "lt.id=ml.link_type_id",
				"it.id=pi.info_type_id", "pi.person_id=an.person_id",
				"an.person_id=ci.person_id", "ci.movie_id=ml.linked_movie_id").
			f("it", eqs("info", "mini biography")).
			minOf("n.name", "t.title")
	}
	a := base("7a").
		f("lt", eqs("link", "features")).
		f("n", and(like("name_pcode_cf", "B%"), eqs("gender", "m"))).
		f("pi", eqs("note", "Volker Boehm")).
		f("t", between("production_year", 1980, 1995)).build()
	b := base("7b").
		f("lt", eqs("link", "features")).
		f("n", and(like("name_pcode_cf", "D%"), eqs("gender", "m"))).
		f("pi", eqs("note", "Volker Boehm")).
		f("t", between("production_year", 1980, 1984)).build()
	c := base("7c").
		f("lt", ins("link", "references", "referenced in", "features", "featured in")).
		f("n", or(like("name_pcode_cf", "A%"), like("name_pcode_cf", "B%"), like("name_pcode_cf", "C%"))).
		f("pi", notnull("note")).
		f("t", between("production_year", 1980, 2010)).build()
	return []*query.Query{a, b, c}
}

func group8() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("a1:aka_name", "ci:cast_info", "cn:company_name", "mc:movie_companies",
				"n1:name", "rt:role_type", "t:title").
			j("a1.person_id=n1.id", "n1.id=ci.person_id", "ci.movie_id=t.id",
				"t.id=mc.movie_id", "mc.company_id=cn.id", "ci.role_id=rt.id",
				"a1.person_id=ci.person_id", "ci.movie_id=mc.movie_id").
			minOf("a1.name", "t.title")
	}
	a := base("8a").
		f("ci", eqs("note", "(voice: English version)")).
		f("cn", eqs("country_code", "[jp]")).
		f("mc", like("note", "%(worldwide)%")).
		f("n1", like("name", "%Kim%")).
		f("rt", eqs("role", "actress")).build()
	b := base("8b").
		f("ci", eqs("note", "(voice: English version)")).
		f("cn", eqs("country_code", "[jp]")).
		f("mc", like("note", "%(worldwide)%")).
		f("n1", like("name", "%Yo%")).
		f("rt", eqs("role", "actress")).
		f("t", between("production_year", 2006, 2007)).build()
	c := base("8c").
		f("cn", eqs("country_code", "[us]")).
		f("rt", eqs("role", "writer")).build()
	d := base("8d").
		f("cn", eqs("country_code", "[us]")).
		f("rt", eqs("role", "costume designer")).build()
	return []*query.Query{a, b, c, d}
}

func group9() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "chn:char_name", "ci:cast_info", "cn:company_name",
				"mc:movie_companies", "n:name", "rt:role_type", "t:title").
			j("ci.movie_id=t.id", "t.id=mc.movie_id", "ci.movie_id=mc.movie_id",
				"mc.company_id=cn.id", "ci.role_id=rt.id", "n.id=ci.person_id",
				"chn.id=ci.person_role_id", "an.person_id=n.id", "an.person_id=ci.person_id").
			f("cn", eqs("country_code", "[us]")).
			f("rt", eqs("role", "actress")).
			minOf("an.name", "chn.name", "t.title")
	}
	a := base("9a").
		f("ci", ins("note", "(voice)", "(voice) (uncredited)", "(voice: English version)")).
		f("mc", like("note", "%(USA)%")).
		f("n", and(eqs("gender", "f"), like("name", "%Ann%"))).
		f("t", between("production_year", 2005, 2015)).build()
	b := base("9b").
		f("ci", eqs("note", "(voice)")).
		f("mc", like("note", "%(200%)%")).
		f("n", and(eqs("gender", "f"), like("name", "%Ann%"))).
		f("t", between("production_year", 2007, 2010)).build()
	c := base("9c").
		f("ci", ins("note", "(voice)", "(voice) (uncredited)", "(voice: English version)")).
		f("n", like("name", "%An%")).build()
	d := base("9d").
		f("ci", ins("note", "(voice)", "(voice) (uncredited)", "(voice: English version)")).
		f("n", eqs("gender", "f")).build()
	return []*query.Query{a, b, c, d}
}

func group10() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("chn:char_name", "ci:cast_info", "cn:company_name", "ct:company_type",
				"mc:movie_companies", "rt:role_type", "t:title").
			j("t.id=mc.movie_id", "t.id=ci.movie_id", "ci.movie_id=mc.movie_id",
				"mc.company_type_id=ct.id", "mc.company_id=cn.id",
				"ci.person_role_id=chn.id", "ci.role_id=rt.id").
			minOf("chn.name", "t.title")
	}
	a := base("10a").
		f("ci", like("note", "%(voice)%")).
		f("cn", eqs("country_code", "[it]")).
		f("rt", eqs("role", "actor")).
		f("t", gti("production_year", 2005)).build()
	b := base("10b").
		f("ci", like("note", "%(producer)%")).
		f("cn", eqs("country_code", "[it]")).
		f("rt", eqs("role", "producer")).
		f("t", gti("production_year", 2010)).build()
	c := base("10c").
		f("ci", like("note", "%(producer)%")).
		f("cn", eqs("country_code", "[us]")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group11() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn:company_name", "ct:company_type", "k:keyword", "lt:link_type",
				"mc:movie_companies", "mk:movie_keyword", "ml:movie_link", "t:title").
			j("t.id=ml.movie_id", "t.id=mk.movie_id", "mk.movie_id=ml.movie_id",
				"k.id=mk.keyword_id", "t.id=mc.movie_id", "mc.movie_id=ml.movie_id",
				"mc.movie_id=mk.movie_id", "ct.id=mc.company_type_id",
				"lt.id=ml.link_type_id", "cn.id=mc.company_id").
			f("ct", eqs("kind", "production companies")).
			minOf("cn.name", "lt.link", "t.title")
	}
	a := base("11a").
		f("cn", and(expr11NotPL(), or(like("name", "%Film%"), like("name", "%Warner%")))).
		f("k", eqs("keyword", "sequel")).
		f("lt", like("link", "%follow%")).
		f("mc", isnull("note")).
		f("t", between("production_year", 1950, 2000)).build()
	b := base("11b").
		f("cn", expr11NotPL()).
		f("k", eqs("keyword", "sequel")).
		f("lt", like("link", "%follows%")).
		f("mc", isnull("note")).
		f("t", eqi("production_year", 1998)).build()
	c := base("11c").
		f("cn", and(expr11NotPL(), or(like("name", "Film%"), like("name", "Warner%")))).
		f("k", eqs("keyword", "sequel")).
		f("lt", like("link", "%follow%")).
		f("mc", isnull("note")).
		f("t", gti("production_year", 1950)).build()
	d := base("11d").
		f("cn", expr11NotPL()).
		f("k", eqs("keyword", "sequel")).
		f("lt", like("link", "%follow%")).
		f("mc", isnull("note")).
		f("t", gti("production_year", 1950)).build()
	return []*query.Query{a, b, c, d}
}

func group12() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn:company_name", "ct:company_type", "it1:info_type", "it2:info_type",
				"mc:movie_companies", "mi:movie_info", "mi_idx:movie_info_idx", "t:title").
			j("t.id=mi.movie_id", "t.id=mi_idx.movie_id", "mi.info_type_id=it1.id",
				"mi_idx.info_type_id=it2.id", "t.id=mc.movie_id", "ct.id=mc.company_type_id",
				"cn.id=mc.company_id", "mc.movie_id=mi.movie_id",
				"mc.movie_id=mi_idx.movie_id", "mi.movie_id=mi_idx.movie_id").
			f("cn", eqs("country_code", "[us]")).
			f("ct", eqs("kind", "production companies")).
			f("it1", eqs("info", "genres")).
			f("it2", eqs("info", "rating")).
			minOf("cn.name", "mi_idx.info", "t.title")
	}
	a := base("12a").
		f("mi", ins("info", "Drama", "Horror")).
		f("mi_idx", gts("info", "8.0")).
		f("t", between("production_year", 2005, 2008)).build()
	b := base("12b").
		f("mi", ins("info", "Drama", "Horror", "Western", "Family")).
		f("mi_idx", gts("info", "7.0")).
		f("t", between("production_year", 2000, 2010)).build()
	c := base("12c").
		f("mi", ins("info", "Drama", "Horror", "Comedy", "Action", "Crime")).
		f("mi_idx", gts("info", "1.0")).
		f("t", gti("production_year", 2000)).build()
	return []*query.Query{a, b, c}
}

func group13() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn:company_name", "ct:company_type", "it1:info_type", "it2:info_type",
				"kt:kind_type", "mc:movie_companies", "mi:movie_info",
				"mi_idx:movie_info_idx", "t:title").
			j("mi.movie_id=t.id", "it2.id=mi.info_type_id", "kt.id=t.kind_id",
				"mc.movie_id=t.id", "cn.id=mc.company_id", "ct.id=mc.company_type_id",
				"mi_idx.movie_id=t.id", "it1.id=mi_idx.info_type_id",
				"mi.movie_id=mi_idx.movie_id", "mi.movie_id=mc.movie_id",
				"mi_idx.movie_id=mc.movie_id").
			f("ct", eqs("kind", "production companies")).
			f("it1", eqs("info", "rating")).
			f("it2", eqs("info", "release dates")).
			f("kt", eqs("kind", "movie")).
			minOf("mi.info", "mi_idx.info", "t.title")
	}
	a := base("13a").
		f("cn", eqs("country_code", "[de]")).build()
	b := base("13b").
		f("cn", eqs("country_code", "[us]")).
		f("t", like("title", "%Champion%")).build()
	c := base("13c").
		f("cn", eqs("country_code", "[us]")).
		f("t", or(like("title", "Champion%"), like("title", "Money%"))).build()
	d := base("13d").
		f("cn", eqs("country_code", "[us]")).build()
	return []*query.Query{a, b, c, d}
}

func group14() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("it1:info_type", "it2:info_type", "k:keyword", "kt:kind_type",
				"mi:movie_info", "mi_idx:movie_info_idx", "mk:movie_keyword", "t:title").
			j("t.id=mi.movie_id", "t.id=mk.movie_id", "t.id=mi_idx.movie_id",
				"mk.movie_id=mi.movie_id", "mk.movie_id=mi_idx.movie_id",
				"mi.movie_id=mi_idx.movie_id", "k.id=mk.keyword_id",
				"it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id", "kt.id=t.kind_id").
			f("it1", eqs("info", "countries")).
			f("it2", eqs("info", "rating")).
			f("kt", eqs("kind", "movie")).
			minOf("mi_idx.info", "t.title")
	}
	a := base("14a").
		f("k", ins("keyword", "murder", "blood", "violence")).
		f("mi", ins("info", "Sweden", "Germany", "USA")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 2010)).build()
	b := base("14b").
		f("k", ins("keyword", "murder", "blood")).
		f("mi", ins("info", "Sweden", "Germany")).
		f("mi_idx", gts("info", "6.0")).
		f("t", and(gti("production_year", 2010), or(like("title", "%Dark%"), like("title", "%Night%")))).build()
	c := base("14c").
		f("k", ins("keyword", "murder", "blood", "violence", "revenge")).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan", "Italy")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 2005)).build()
	return []*query.Query{a, b, c}
}

func group15() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("at:aka_title", "cn:company_name", "ct:company_type", "it1:info_type",
				"k:keyword", "mc:movie_companies", "mi:movie_info", "mk:movie_keyword", "t:title").
			j("t.id=at.movie_id", "t.id=mi.movie_id", "t.id=mk.movie_id", "t.id=mc.movie_id",
				"mk.movie_id=mi.movie_id", "mk.movie_id=mc.movie_id", "mi.movie_id=mc.movie_id",
				"k.id=mk.keyword_id", "it1.id=mi.info_type_id", "cn.id=mc.company_id",
				"ct.id=mc.company_type_id", "at.movie_id=mi.movie_id").
			f("cn", eqs("country_code", "[us]")).
			f("it1", eqs("info", "release dates")).
			minOf("mi.info", "t.title")
	}
	a := base("15a").
		f("mc", like("note", "%(200%)%")).
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2000)).build()
	b := base("15b").
		f("mc", like("note", "%(worldwide)%")).
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2000)).build()
	c := base("15c").
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 1990)).build()
	d := base("15d").
		f("mi", like("info", "%:2%")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c, d}
}

func group16() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "ci:cast_info", "cn:company_name", "k:keyword",
				"mc:movie_companies", "mk:movie_keyword", "n:name", "t:title").
			j("an.person_id=n.id", "n.id=ci.person_id", "ci.movie_id=t.id",
				"t.id=mk.movie_id", "mk.keyword_id=k.id", "t.id=mc.movie_id",
				"mc.company_id=cn.id", "ci.movie_id=mc.movie_id", "ci.movie_id=mk.movie_id",
				"mc.movie_id=mk.movie_id").
			f("cn", eqs("country_code", "[us]")).
			f("k", eqs("keyword", "character-name-in-title")).
			minOf("an.name", "t.title")
	}
	a := base("16a").
		f("t", between("episode_nr", 50, 99)).build()
	b := base("16b").build()
	c := base("16c").
		f("t", lti("episode_nr", 100)).build()
	d := base("16d").
		f("t", gei("episode_nr", 5)).build()
	return []*query.Query{a, b, c, d}
}

func group17() []*query.Query {
	base := func(name, nameLike string) *query.Query {
		b := nq(name).
			t("ci:cast_info", "cn:company_name", "k:keyword", "mc:movie_companies",
				"mk:movie_keyword", "n:name", "t:title").
			j("n.id=ci.person_id", "ci.movie_id=t.id", "t.id=mk.movie_id",
				"mk.keyword_id=k.id", "t.id=mc.movie_id", "mc.company_id=cn.id",
				"ci.movie_id=mc.movie_id", "ci.movie_id=mk.movie_id", "mc.movie_id=mk.movie_id").
			f("cn", eqs("country_code", "[us]")).
			f("k", eqs("keyword", "character-name-in-title")).
			minOf("n.name", "n.name")
		if nameLike != "" {
			b.f("n", like("name", nameLike))
		}
		return b.build()
	}
	return []*query.Query{
		base("17a", "B%"), base("17b", "Z%"), base("17c", "X%"),
		base("17d", "%Bob%"), base("17e", "%Tim%"), base("17f", "%Kim%"),
	}
}

func group18() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("ci:cast_info", "it1:info_type", "it2:info_type", "mi:movie_info",
				"mi_idx:movie_info_idx", "n:name", "t:title").
			j("t.id=mi.movie_id", "t.id=mi_idx.movie_id", "t.id=ci.movie_id",
				"ci.movie_id=mi.movie_id", "ci.movie_id=mi_idx.movie_id",
				"mi.movie_id=mi_idx.movie_id", "n.id=ci.person_id",
				"it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id").
			f("it1", eqs("info", "budget")).
			f("it2", eqs("info", "votes")).
			minOf("mi.info", "mi_idx.info", "t.title")
	}
	a := base("18a").
		f("ci", ins("note", "(producer)", "(executive producer)")).
		f("n", and(eqs("gender", "m"), like("name", "%Tim%"))).build()
	b := base("18b").
		f("ci", ins("note", "(producer)", "(executive producer)", "(writer)")).
		f("n", eqs("gender", "f")).
		f("t", gti("production_year", 2010)).build()
	c := base("18c").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("n", eqs("gender", "m")).build()
	return []*query.Query{a, b, c}
}

func group19() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "chn:char_name", "ci:cast_info", "cn:company_name",
				"it:info_type", "mc:movie_companies", "mi:movie_info", "n:name",
				"rt:role_type", "t:title").
			j("t.id=mi.movie_id", "t.id=mc.movie_id", "t.id=ci.movie_id",
				"mc.movie_id=ci.movie_id", "mc.movie_id=mi.movie_id", "mi.movie_id=ci.movie_id",
				"cn.id=mc.company_id", "it.id=mi.info_type_id", "n.id=ci.person_id",
				"rt.id=ci.role_id", "n.id=an.person_id", "ci.person_id=an.person_id",
				"chn.id=ci.person_role_id").
			f("cn", eqs("country_code", "[us]")).
			f("it", eqs("info", "release dates")).
			f("rt", eqs("role", "actress")).
			minOf("n.name", "t.title")
	}
	a := base("19a").
		f("ci", eqs("note", "(voice)")).
		f("mc", like("note", "%(USA)%")).
		f("mi", like("info", "USA:%")).
		f("n", and(eqs("gender", "f"), like("name", "%Ann%"))).
		f("t", between("production_year", 2000, 2010)).build()
	b := base("19b").
		f("ci", eqs("note", "(voice)")).
		f("mc", like("note", "%(200%)%")).
		f("mi", like("info", "USA:2%")).
		f("n", and(eqs("gender", "f"), like("name", "%An%"))).
		f("t", eqi("production_year", 2006)).build()
	c := base("19c").
		f("ci", ins("note", "(voice)", "(voice: English version)", "(voice) (uncredited)")).
		f("n", and(eqs("gender", "f"), like("name", "%An%"))).
		f("t", between("production_year", 2000, 2019)).build()
	d := base("19d").
		f("ci", ins("note", "(voice)", "(voice: English version)", "(voice) (uncredited)")).
		f("n", eqs("gender", "f")).
		f("t", between("production_year", 2000, 2019)).build()
	return []*query.Query{a, b, c, d}
}

func group20() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "cct2:comp_cast_type", "chn:char_name",
				"ci:cast_info", "cc:complete_cast", "k:keyword", "kt:kind_type",
				"mk:movie_keyword", "n:name", "t:title").
			j("kt.id=t.kind_id", "t.id=mk.movie_id", "t.id=ci.movie_id", "t.id=cc.movie_id",
				"mk.movie_id=ci.movie_id", "mk.movie_id=cc.movie_id", "ci.movie_id=cc.movie_id",
				"chn.id=ci.person_role_id", "n.id=ci.person_id", "k.id=mk.keyword_id",
				"cct1.id=cc.subject_id", "cct2.id=cc.status_id").
			f("cct1", eqs("kind", "cast")).
			f("kt", eqs("kind", "movie")).
			minOf("t.title")
	}
	a := base("20a").
		f("cct2", like("kind", "%complete%")).
		f("k", ins("keyword", "superhero", "sequel", "marvel-cinematic-universe", "based-on-comic")).
		f("t", gti("production_year", 1950)).build()
	b := base("20b").
		f("cct2", like("kind", "%complete%")).
		f("k", ins("keyword", "superhero", "sequel")).
		f("n", like("name", "%Sam%")).
		f("t", gti("production_year", 2000)).build()
	c := base("20c").
		f("cct2", eqs("kind", "complete+verified")).
		f("k", ins("keyword", "superhero", "sequel", "based-on-comic", "fight")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group21() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn:company_name", "ct:company_type", "k:keyword", "lt:link_type",
				"mc:movie_companies", "mi:movie_info", "mk:movie_keyword",
				"ml:movie_link", "t:title").
			j("lt.id=ml.link_type_id", "ml.movie_id=t.id", "t.id=mk.movie_id",
				"mk.keyword_id=k.id", "t.id=mc.movie_id", "mc.company_type_id=ct.id",
				"mc.company_id=cn.id", "mi.movie_id=t.id", "ml.movie_id=mk.movie_id",
				"ml.movie_id=mc.movie_id", "mk.movie_id=mc.movie_id",
				"ml.movie_id=mi.movie_id", "mk.movie_id=mi.movie_id", "mc.movie_id=mi.movie_id").
			f("ct", eqs("kind", "production companies")).
			f("k", eqs("keyword", "sequel")).
			f("lt", like("link", "%follow%")).
			f("mc", isnull("note")).
			minOf("cn.name", "lt.link", "t.title")
	}
	a := base("21a").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Sweden", "Germany", "USA")).
		f("t", between("production_year", 1950, 2000)).build()
	b := base("21b").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Germany", "Sweden")).
		f("t", between("production_year", 2000, 2010)).build()
	c := base("21c").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan", "Italy")).
		f("t", between("production_year", 1950, 2010)).build()
	return []*query.Query{a, b, c}
}

func group22() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn:company_name", "ct:company_type", "it1:info_type", "it2:info_type",
				"k:keyword", "kt:kind_type", "mc:movie_companies", "mi:movie_info",
				"mi_idx:movie_info_idx", "mk:movie_keyword", "t:title").
			j("kt.id=t.kind_id", "t.id=mi.movie_id", "t.id=mk.movie_id",
				"t.id=mi_idx.movie_id", "t.id=mc.movie_id", "mk.movie_id=mi.movie_id",
				"mk.movie_id=mi_idx.movie_id", "mk.movie_id=mc.movie_id",
				"mi.movie_id=mi_idx.movie_id", "mi.movie_id=mc.movie_id",
				"mc.movie_id=mi_idx.movie_id", "k.id=mk.keyword_id",
				"it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id",
				"ct.id=mc.company_type_id", "cn.id=mc.company_id").
			f("it1", eqs("info", "countries")).
			f("it2", eqs("info", "rating")).
			f("k", ins("keyword", "murder", "blood", "violence", "revenge")).
			minOf("cn.name", "mi_idx.info", "t.title")
	}
	a := base("22a").
		f("cn", eqs("country_code", "[de]")).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Germany", "Sweden")).
		f("mi_idx", lts("info", "7.0")).
		f("t", gti("production_year", 2008)).build()
	b := base("22b").
		f("cn", eqs("country_code", "[se]")).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Germany", "Sweden")).
		f("mi_idx", lts("info", "7.0")).
		f("t", gti("production_year", 2009)).build()
	c := base("22c").
		f("cn", eqs("country_code", "[us]")).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 2005)).build()
	d := base("22d").
		f("cn", eqs("country_code", "[us]")).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan", "Italy")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c, d}
}

func group23() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "cc:complete_cast", "cn:company_name",
				"ct:company_type", "it1:info_type", "k:keyword", "kt:kind_type",
				"mc:movie_companies", "mi:movie_info", "mk:movie_keyword", "t:title").
			j("kt.id=t.kind_id", "t.id=mi.movie_id", "t.id=mk.movie_id", "t.id=mc.movie_id",
				"t.id=cc.movie_id", "mk.movie_id=mi.movie_id", "mk.movie_id=mc.movie_id",
				"mk.movie_id=cc.movie_id", "mi.movie_id=mc.movie_id", "mi.movie_id=cc.movie_id",
				"mc.movie_id=cc.movie_id", "k.id=mk.keyword_id", "it1.id=mi.info_type_id",
				"cn.id=mc.company_id", "ct.id=mc.company_type_id", "cct1.id=cc.status_id").
			f("cct1", eqs("kind", "complete+verified")).
			f("cn", eqs("country_code", "[us]")).
			f("it1", eqs("info", "release dates")).
			f("kt", eqs("kind", "movie")).
			minOf("kt.kind", "t.title")
	}
	a := base("23a").
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2000)).build()
	b := base("23b").
		f("k", ins("keyword", "murder", "violence", "blood")).
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2000)).build()
	c := base("23c").
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group24() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "chn:char_name", "ci:cast_info", "cn:company_name",
				"it:info_type", "k:keyword", "mc:movie_companies", "mi:movie_info",
				"mk:movie_keyword", "n:name", "rt:role_type", "t:title").
			j("t.id=mi.movie_id", "t.id=mc.movie_id", "t.id=ci.movie_id", "t.id=mk.movie_id",
				"mc.movie_id=ci.movie_id", "mc.movie_id=mi.movie_id", "mc.movie_id=mk.movie_id",
				"mi.movie_id=ci.movie_id", "mi.movie_id=mk.movie_id", "ci.movie_id=mk.movie_id",
				"cn.id=mc.company_id", "it.id=mi.info_type_id", "n.id=ci.person_id",
				"rt.id=ci.role_id", "n.id=an.person_id", "ci.person_id=an.person_id",
				"chn.id=ci.person_role_id", "k.id=mk.keyword_id").
			f("cn", eqs("country_code", "[us]")).
			f("it", eqs("info", "release dates")).
			f("rt", eqs("role", "actress")).
			f("n", eqs("gender", "f")).
			minOf("chn.name", "n.name", "t.title")
	}
	a := base("24a").
		f("ci", ins("note", "(voice)", "(voice: English version)", "(voice) (uncredited)")).
		f("k", ins("keyword", "hero", "martial-arts", "superhero")).
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2010)).build()
	b := base("24b").
		f("ci", ins("note", "(voice)", "(voice: English version)", "(voice) (uncredited)")).
		f("k", eqs("keyword", "hero")).
		f("mi", like("info", "USA:%")).
		f("t", gti("production_year", 2014)).build()
	return []*query.Query{a, b}
}

func group25() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("ci:cast_info", "it1:info_type", "it2:info_type", "k:keyword",
				"mi:movie_info", "mi_idx:movie_info_idx", "mk:movie_keyword",
				"n:name", "t:title").
			j("t.id=mi.movie_id", "t.id=mi_idx.movie_id", "t.id=ci.movie_id",
				"t.id=mk.movie_id", "ci.movie_id=mi.movie_id", "ci.movie_id=mi_idx.movie_id",
				"ci.movie_id=mk.movie_id", "mi.movie_id=mi_idx.movie_id",
				"mi.movie_id=mk.movie_id", "mi_idx.movie_id=mk.movie_id",
				"n.id=ci.person_id", "it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id",
				"k.id=mk.keyword_id").
			f("it1", eqs("info", "genres")).
			f("it2", eqs("info", "votes")).
			f("n", eqs("gender", "m")).
			minOf("mi.info", "mi_idx.info", "n.name", "t.title")
	}
	a := base("25a").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("k", ins("keyword", "murder", "blood", "violence")).
		f("mi", eqs("info", "Horror")).build()
	b := base("25b").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("k", eqs("keyword", "murder")).
		f("mi", eqs("info", "Horror")).
		f("t", gti("production_year", 2010)).build()
	c := base("25c").
		f("ci", ins("note", "(writer)", "(head writer)", "(producer)")).
		f("k", ins("keyword", "murder", "blood", "violence", "revenge", "fight")).
		f("mi", ins("info", "Horror", "Action", "Thriller")).build()
	return []*query.Query{a, b, c}
}

func group26() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "chn:char_name", "ci:cast_info",
				"cc:complete_cast", "it2:info_type", "k:keyword", "kt:kind_type",
				"mi_idx:movie_info_idx", "mk:movie_keyword", "n:name", "t:title").
			j("kt.id=t.kind_id", "t.id=mk.movie_id", "t.id=ci.movie_id", "t.id=cc.movie_id",
				"t.id=mi_idx.movie_id", "mk.movie_id=ci.movie_id", "mk.movie_id=cc.movie_id",
				"mk.movie_id=mi_idx.movie_id", "ci.movie_id=cc.movie_id",
				"ci.movie_id=mi_idx.movie_id", "cc.movie_id=mi_idx.movie_id",
				"chn.id=ci.person_role_id", "n.id=ci.person_id", "k.id=mk.keyword_id",
				"it2.id=mi_idx.info_type_id", "cct1.id=cc.subject_id").
			f("cct1", eqs("kind", "cast")).
			f("it2", eqs("info", "rating")).
			f("kt", eqs("kind", "movie")).
			minOf("chn.name", "mi_idx.info", "n.name", "t.title")
	}
	a := base("26a").
		f("k", ins("keyword", "superhero", "fight", "martial-arts")).
		f("mi_idx", gts("info", "7.0")).
		f("t", gti("production_year", 2000)).build()
	b := base("26b").
		f("k", ins("keyword", "superhero", "fight")).
		f("mi_idx", gts("info", "8.0")).
		f("t", gti("production_year", 2005)).build()
	c := base("26c").
		f("k", ins("keyword", "superhero", "fight", "martial-arts", "hero", "based-on-comic")).
		f("t", gti("production_year", 2000)).build()
	return []*query.Query{a, b, c}
}

func group27() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "cct2:comp_cast_type", "cn:company_name",
				"ct:company_type", "cc:complete_cast", "k:keyword", "lt:link_type",
				"mc:movie_companies", "mi:movie_info", "mk:movie_keyword",
				"ml:movie_link", "t:title").
			j("lt.id=ml.link_type_id", "ml.movie_id=t.id", "t.id=mk.movie_id",
				"mk.keyword_id=k.id", "t.id=mc.movie_id", "mc.company_type_id=ct.id",
				"mc.company_id=cn.id", "mi.movie_id=t.id", "t.id=cc.movie_id",
				"cct1.id=cc.subject_id", "cct2.id=cc.status_id",
				"ml.movie_id=mk.movie_id", "ml.movie_id=mc.movie_id",
				"mk.movie_id=mc.movie_id", "ml.movie_id=mi.movie_id",
				"mk.movie_id=mi.movie_id", "mc.movie_id=mi.movie_id",
				"ml.movie_id=cc.movie_id", "mk.movie_id=cc.movie_id",
				"mc.movie_id=cc.movie_id", "mi.movie_id=cc.movie_id").
			f("cct1", ins("kind", "cast", "crew")).
			f("cct2", eqs("kind", "complete")).
			f("ct", eqs("kind", "production companies")).
			f("k", eqs("keyword", "sequel")).
			f("lt", like("link", "%follow%")).
			f("mc", isnull("note")).
			minOf("cn.name", "lt.link", "t.title")
	}
	a := base("27a").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Sweden", "Germany", "USA")).
		f("t", between("production_year", 1950, 2000)).build()
	b := base("27b").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Germany", "Sweden")).
		f("t", eqi("production_year", 1998)).build()
	c := base("27c").
		f("cn", or(like("name", "%Film%"), like("name", "%Warner%"))).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan", "Italy")).
		f("t", between("production_year", 1950, 2010)).build()
	return []*query.Query{a, b, c}
}

func group28() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "cct2:comp_cast_type", "cn:company_name",
				"ct:company_type", "cc:complete_cast", "it1:info_type", "it2:info_type",
				"k:keyword", "kt:kind_type", "mc:movie_companies", "mi:movie_info",
				"mi_idx:movie_info_idx", "mk:movie_keyword", "t:title").
			j("kt.id=t.kind_id", "t.id=mi.movie_id", "t.id=mk.movie_id",
				"t.id=mi_idx.movie_id", "t.id=mc.movie_id", "t.id=cc.movie_id",
				"mk.movie_id=mi.movie_id", "mk.movie_id=mi_idx.movie_id",
				"mk.movie_id=mc.movie_id", "mk.movie_id=cc.movie_id",
				"mi.movie_id=mi_idx.movie_id", "mi.movie_id=mc.movie_id",
				"mi.movie_id=cc.movie_id", "mc.movie_id=mi_idx.movie_id",
				"mc.movie_id=cc.movie_id", "mi_idx.movie_id=cc.movie_id",
				"k.id=mk.keyword_id", "it1.id=mi.info_type_id",
				"it2.id=mi_idx.info_type_id", "ct.id=mc.company_type_id",
				"cn.id=mc.company_id", "cct1.id=cc.subject_id", "cct2.id=cc.status_id").
			f("cct1", eqs("kind", "crew")).
			f("it1", eqs("info", "countries")).
			f("it2", eqs("info", "rating")).
			f("k", ins("keyword", "murder", "blood", "violence", "revenge")).
			minOf("cn.name", "mi_idx.info", "t.title")
	}
	a := base("28a").
		f("cct2", expr28NotVerified()).
		f("cn", expr11NotPL()).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Sweden", "Germany", "USA")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 2000)).build()
	b := base("28b").
		f("cct2", expr28NotVerified()).
		f("cn", expr11NotPL()).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Sweden", "Germany")).
		f("mi_idx", gts("info", "6.5")).
		f("t", gti("production_year", 2005)).build()
	c := base("28c").
		f("cct2", eqs("kind", "complete")).
		f("cn", expr11NotPL()).
		f("kt", ins("kind", "movie", "episode")).
		f("mi", ins("info", "Sweden", "Germany", "USA", "Japan", "Italy")).
		f("mi_idx", lts("info", "8.5")).
		f("t", gti("production_year", 1990)).build()
	return []*query.Query{a, b, c}
}

func group29() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("an:aka_name", "cct1:comp_cast_type", "cct2:comp_cast_type",
				"chn:char_name", "ci:cast_info", "cc:complete_cast", "it:info_type",
				"it3:info_type", "k:keyword", "mc:movie_companies", "mi:movie_info",
				"mk:movie_keyword", "n:name", "pi:person_info", "rt:role_type", "t:title").
			j("t.id=mi.movie_id", "t.id=mc.movie_id", "t.id=ci.movie_id",
				"t.id=mk.movie_id", "t.id=cc.movie_id", "mc.movie_id=ci.movie_id",
				"mc.movie_id=mi.movie_id", "mc.movie_id=mk.movie_id", "mc.movie_id=cc.movie_id",
				"mi.movie_id=ci.movie_id", "mi.movie_id=mk.movie_id", "mi.movie_id=cc.movie_id",
				"ci.movie_id=mk.movie_id", "ci.movie_id=cc.movie_id", "mk.movie_id=cc.movie_id",
				"it.id=mi.info_type_id", "n.id=ci.person_id", "rt.id=ci.role_id",
				"n.id=an.person_id", "ci.person_id=an.person_id", "chn.id=ci.person_role_id",
				"n.id=pi.person_id", "ci.person_id=pi.person_id", "it3.id=pi.info_type_id",
				"k.id=mk.keyword_id", "cct1.id=cc.subject_id", "cct2.id=cc.status_id").
			f("cct1", eqs("kind", "cast")).
			f("cct2", eqs("kind", "complete+verified")).
			f("it", eqs("info", "release dates")).
			f("it3", eqs("info", "trivia")).
			f("k", eqs("keyword", "hero")).
			f("n", eqs("gender", "f")).
			f("rt", eqs("role", "actress")).
			minOf("chn.name", "n.name", "t.title")
	}
	a := base("29a").
		f("ci", eqs("note", "(voice)")).
		f("mi", like("info", "USA:%")).
		f("t", between("production_year", 2000, 2010)).build()
	b := base("29b").
		f("ci", eqs("note", "(voice)")).
		f("mi", like("info", "USA:2%")).
		f("t", eqi("production_year", 2014)).build()
	c := base("29c").
		f("ci", ins("note", "(voice)", "(voice: English version)", "(voice) (uncredited)")).
		f("t", between("production_year", 2000, 2019)).build()
	return []*query.Query{a, b, c}
}

func group30() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cct1:comp_cast_type", "cct2:comp_cast_type", "ci:cast_info",
				"cc:complete_cast", "it1:info_type", "it2:info_type", "k:keyword",
				"mi:movie_info", "mi_idx:movie_info_idx", "mk:movie_keyword",
				"n:name", "t:title").
			j("t.id=mi.movie_id", "t.id=mi_idx.movie_id", "t.id=ci.movie_id",
				"t.id=mk.movie_id", "t.id=cc.movie_id", "ci.movie_id=mi.movie_id",
				"ci.movie_id=mi_idx.movie_id", "ci.movie_id=mk.movie_id",
				"ci.movie_id=cc.movie_id", "mi.movie_id=mi_idx.movie_id",
				"mi.movie_id=mk.movie_id", "mi.movie_id=cc.movie_id",
				"mi_idx.movie_id=mk.movie_id", "mi_idx.movie_id=cc.movie_id",
				"mk.movie_id=cc.movie_id", "n.id=ci.person_id",
				"it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id",
				"k.id=mk.keyword_id", "cct1.id=cc.subject_id", "cct2.id=cc.status_id").
			f("cct1", ins("kind", "cast", "crew")).
			f("cct2", eqs("kind", "complete+verified")).
			f("it1", eqs("info", "genres")).
			f("it2", eqs("info", "votes")).
			f("n", eqs("gender", "m")).
			minOf("mi.info", "mi_idx.info", "n.name", "t.title")
	}
	a := base("30a").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("k", ins("keyword", "murder", "violence", "blood")).
		f("mi", ins("info", "Horror", "Thriller")).
		f("t", gti("production_year", 2000)).build()
	b := base("30b").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("k", ins("keyword", "murder", "violence")).
		f("mi", eqs("info", "Horror")).
		f("t", gti("production_year", 2010)).build()
	c := base("30c").
		f("ci", ins("note", "(writer)", "(head writer)", "(producer)")).
		f("k", ins("keyword", "murder", "violence", "blood", "revenge", "fight")).
		f("mi", ins("info", "Horror", "Action", "Thriller")).build()
	return []*query.Query{a, b, c}
}

func group31() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("ci:cast_info", "cn:company_name", "it1:info_type", "it2:info_type",
				"k:keyword", "mc:movie_companies", "mi:movie_info",
				"mi_idx:movie_info_idx", "mk:movie_keyword", "n:name", "t:title").
			j("t.id=mi.movie_id", "t.id=mi_idx.movie_id", "t.id=ci.movie_id",
				"t.id=mk.movie_id", "t.id=mc.movie_id", "ci.movie_id=mi.movie_id",
				"ci.movie_id=mi_idx.movie_id", "ci.movie_id=mk.movie_id",
				"ci.movie_id=mc.movie_id", "mi.movie_id=mi_idx.movie_id",
				"mi.movie_id=mk.movie_id", "mi.movie_id=mc.movie_id",
				"mi_idx.movie_id=mk.movie_id", "mi_idx.movie_id=mc.movie_id",
				"mk.movie_id=mc.movie_id", "n.id=ci.person_id",
				"it1.id=mi.info_type_id", "it2.id=mi_idx.info_type_id",
				"k.id=mk.keyword_id", "cn.id=mc.company_id").
			f("it1", eqs("info", "genres")).
			f("it2", eqs("info", "votes")).
			minOf("mi.info", "mi_idx.info", "n.name", "t.title")
	}
	a := base("31a").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("cn", like("name", "Film%")).
		f("k", ins("keyword", "murder", "violence", "blood")).
		f("mi", ins("info", "Horror", "Thriller")).
		f("n", eqs("gender", "m")).build()
	b := base("31b").
		f("ci", ins("note", "(writer)", "(head writer)")).
		f("cn", like("name", "Film%")).
		f("k", eqs("keyword", "murder")).
		f("mi", eqs("info", "Horror")).
		f("n", eqs("gender", "m")).
		f("t", gti("production_year", 2000)).build()
	c := base("31c").
		f("ci", ins("note", "(writer)", "(head writer)", "(producer)")).
		f("cn", expr11NotPL()).
		f("k", ins("keyword", "murder", "violence", "blood", "revenge", "fight")).
		f("mi", ins("info", "Horror", "Action", "Thriller")).build()
	return []*query.Query{a, b, c}
}

func group32() []*query.Query {
	base := func(name, kw string) *query.Query {
		return nq(name).
			t("k:keyword", "lt:link_type", "mk:movie_keyword", "ml:movie_link",
				"t1:title", "t2:title").
			j("mk.keyword_id=k.id", "t1.id=ml.movie_id", "t2.id=ml.linked_movie_id",
				"ml.link_type_id=lt.id", "mk.movie_id=t1.id").
			f("k", eqs("keyword", kw)).
			minOf("lt.link", "t1.title", "t2.title").
			build()
	}
	return []*query.Query{
		base("32a", "10,000-mile-club"),
		base("32b", "character-name-in-title"),
	}
}

func group33() []*query.Query {
	base := func(name string) *qb {
		return nq(name).
			t("cn1:company_name", "cn2:company_name", "it1:info_type", "it2:info_type",
				"kt1:kind_type", "kt2:kind_type", "lt:link_type", "mc1:movie_companies",
				"mc2:movie_companies", "mi_idx1:movie_info_idx", "mi_idx2:movie_info_idx",
				"t1:title", "t2:title").
			j("lt.id=ml.link_type_id", "t1.id=ml.movie_id", "t2.id=ml.linked_movie_id",
				"it1.id=mi_idx1.info_type_id", "t1.id=mi_idx1.movie_id",
				"kt1.id=t1.kind_id", "cn1.id=mc1.company_id", "t1.id=mc1.movie_id",
				"ml.movie_id=mi_idx1.movie_id", "ml.movie_id=mc1.movie_id",
				"mi_idx1.movie_id=mc1.movie_id", "it2.id=mi_idx2.info_type_id",
				"t2.id=mi_idx2.movie_id", "kt2.id=t2.kind_id", "cn2.id=mc2.company_id",
				"t2.id=mc2.movie_id", "ml.linked_movie_id=mi_idx2.movie_id",
				"ml.linked_movie_id=mc2.movie_id", "mi_idx2.movie_id=mc2.movie_id").
			t("ml:movie_link").
			f("it1", eqs("info", "rating")).
			f("it2", eqs("info", "rating")).
			f("kt1", ins("kind", "tv series")).
			f("kt2", ins("kind", "tv series")).
			minOf("cn1.name", "cn2.name", "mi_idx1.info", "mi_idx2.info", "t1.title", "t2.title")
	}
	a := base("33a").
		f("cn1", eqs("country_code", "[us]")).
		f("lt", ins("link", "sequel", "follows", "followed by")).
		f("mi_idx2", lts("info", "3.0")).
		f("t2", between("production_year", 2005, 2008)).build()
	b := base("33b").
		f("cn1", eqs("country_code", "[it]")).
		f("lt", like("link", "%follow%")).
		f("mi_idx2", lts("info", "3.0")).
		f("t2", eqi("production_year", 2007)).build()
	c := base("33c").
		f("cn1", expr11NotPL()).
		f("lt", ins("link", "sequel", "follows", "followed by")).
		f("mi_idx2", lts("info", "3.5")).
		f("t2", between("production_year", 2000, 2010)).build()
	return []*query.Query{a, b, c}
}

// expr11NotPL is the recurring cn.country_code <> '[pl]' predicate of JOB.
func expr11NotPL() expr.Pred {
	return expr.Cmp{Col: "country_code", Op: expr.Ne, Val: table.StrVal("[pl]")}
}

// expr28NotVerified is cct2.kind <> 'complete+verified'.
func expr28NotVerified() expr.Pred {
	return expr.Cmp{Col: "kind", Op: expr.Ne, Val: table.StrVal("complete+verified")}
}
