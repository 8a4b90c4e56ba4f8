"""Tests for the type system (knowledge base)."""

from repro.corpus.knowledge_base import TypeSystem, build_type_system, default_regex_types


class TestCanonicalisation:
    def test_lowercases_and_underscores(self):
        assert TypeSystem.canonical("Data Mining") == "data_mining"

    def test_strips_whitespace(self):
        assert TypeSystem.canonical("  hpc  ") == "hpc"


class TestDictionaryTypes:
    def setup_method(self):
        self.system = build_type_system({
            "topic": ["data mining", "hpc"],
            "journal": ["tkde", "jmlr"],
        })

    def test_types_of_known_word(self):
        assert self.system.types_of("hpc") == ("topic",)
        assert self.system.types_of("data_mining") == ("topic",)

    def test_types_of_accepts_uncanonical_form(self):
        assert self.system.types_of("Data Mining") == ("topic",)

    def test_types_of_unknown_word(self):
        assert self.system.types_of("banana") == ()

    def test_word_in_multiple_types(self):
        system = TypeSystem()
        system.add_word("topic", "security")
        system.add_word("feature", "security")
        assert system.types_of("security") == ("feature", "topic")

    def test_a_lookup_sees_a_word_added_after_it(self):
        assert self.system.types_of("icde") == ()
        self.system.add_word("venue", "ICDE")
        assert self.system.types_of("icde") == ("venue",)
        self.system.add_word("journal", "icde")
        assert self.system.types_of("ICDE") == ("journal", "venue")

    def test_primary_type(self):
        assert self.system.primary_type("tkde") == "journal"
        assert self.system.primary_type("banana") is None

    def test_known_phrases_only_multiword(self):
        assert self.system.known_phrases() == frozenset({"data_mining"})

    def test_words_of(self):
        assert self.system.words_of("journal") == frozenset({"tkde", "jmlr"})

    def test_contains(self):
        assert "hpc" in self.system
        assert "banana" not in self.system

    def test_type_names_sorted_and_include_regex_types(self):
        names = self.system.type_names()
        assert names == sorted(names)
        assert {"journal", "topic", "email", "url"} <= set(names)


class TestRegexTypes:
    def setup_method(self):
        self.system = build_type_system({"topic": ["hpc"]})

    def test_email(self):
        assert self.system.types_of("john.doe@cs.example.edu") == ("email",)

    def test_url(self):
        assert self.system.types_of("www.example.edu/home") == ("url",)

    def test_phonenum(self):
        assert self.system.types_of("+1-555-0142") == ("phonenum",)

    def test_year(self):
        assert self.system.types_of("2009") == ("year",)
        assert self.system.types_of("3009") == ()

    def test_a_lookup_sees_a_regex_type_added_after_it(self):
        system = TypeSystem()
        assert system.types_of("kdd2016") == ()
        system.add_regex_type("venue_year", r"[a-z]+(19|20)[0-9]{2}")
        assert system.types_of("kdd2016") == ("venue_year",)

    def test_dictionary_takes_precedence_over_regex(self):
        system = build_type_system({"award": ["2009"]})
        assert system.types_of("2009") == ("award",)

    def test_default_regex_types_cover_expected_names(self):
        names = {name for name, _ in default_regex_types()}
        assert names == {"email", "url", "phonenum", "year"}
