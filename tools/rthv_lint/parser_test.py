#!/usr/bin/env python3
"""Unit tests for rthv_lint's tokenizer and C++ declaration parser.

Covers the tricky declaration shapes the real tree uses -- nested classes,
[[gnu::target]] attribute clones, template members, in-class initializers,
#if-guarded members, out-of-line definitions -- so a parser regression
fails `ctest -L static` instead of silently dropping members from the
snapshot-coverage analysis.

Run directly (`python3 parser_test.py`) or via tests/run_static_analysis.sh.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rthv_lint  # noqa: E402  (path set up above)


def parse(text: str) -> rthv_lint.FileModel:
    code = rthv_lint.strip_comments_and_strings(text).splitlines()
    return rthv_lint.DeclParser(rthv_lint.tokenize(code), "test.hpp").parse()


def only_class(model: rthv_lint.FileModel, name: str) -> rthv_lint.ClassModel:
    matches = [c for c in model.classes if c.name == name]
    if len(matches) != 1:
        raise AssertionError(f"expected exactly one class {name!r}, "
                             f"got {[c.name for c in model.classes]}")
    return matches[0]


def member_names(cls: rthv_lint.ClassModel) -> list[str]:
    return [m.name for m in cls.members]


class TokenizerTest(unittest.TestCase):
    def test_preprocessor_lines_become_pp_tokens(self):
        toks = rthv_lint.tokenize(["#include <vector>", "int x;"])
        self.assertEqual(toks[0].kind, "pp")
        self.assertEqual(toks[0].text, "include")
        # The <vector> angle brackets must not leak into the token stream.
        self.assertNotIn("<", [t.text for t in toks])

    def test_continuation_lines_are_swallowed(self):
        toks = rthv_lint.tokenize(["#define FOO(a) \\", "  ((a) + 1)", "int y;"])
        kinds = [(t.kind, t.text) for t in toks]
        self.assertEqual(kinds, [("pp", "define"), ("id", "int"), ("id", "y"),
                                 ("punct", ";")])

    def test_line_numbers(self):
        toks = rthv_lint.tokenize(["int a;", "", "int b;"])
        self.assertEqual([t.line for t in toks if t.kind == "id"], [1, 1, 3, 3])

    def test_multichar_operators(self):
        toks = rthv_lint.tokenize(["a <<= b >> c; x->y; p::q;"])
        texts = [t.text for t in toks if t.kind == "punct"]
        self.assertIn("<<=", texts)
        self.assertIn(">>", texts)
        self.assertIn("->", texts)
        self.assertIn("::", texts)


class MemberParsingTest(unittest.TestCase):
    def test_simple_members(self):
        m = parse("""
        class A {
         public:
          int x_;
          long y_ = 7;
         private:
          double z_{1.0};
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")), ["x_", "y_", "z_"])

    def test_template_members_and_nested_angles(self):
        m = parse("""
        class A {
          std::vector<std::pair<int, long>> pairs_;
          std::array<std::uint64_t, 4> words_{};
          std::map<std::string, std::vector<int>> table_;
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")),
                         ["pairs_", "words_", "table_"])

    def test_function_pointer_and_std_function_members(self):
        m = parse("""
        class A {
          void (*hook_)() = nullptr;
          std::function<void(int)> cb_;
        };
        """)
        cls = only_class(m, "A")
        self.assertIn("cb_", member_names(cls))
        self.assertIn("hook_", member_names(cls))

    def test_methods_are_not_members(self):
        m = parse("""
        class A {
         public:
          void poke();
          int peek() const { return v_; }
          [[nodiscard]] long sum(int a, int b) { return a + b; }
         private:
          int v_ = 0;
        };
        """)
        cls = only_class(m, "A")
        self.assertEqual(member_names(cls), ["v_"])
        self.assertIn("peek", cls.methods)
        self.assertIsNotNone(cls.methods["peek"].body)
        self.assertIn("sum", cls.methods)
        self.assertEqual(cls.methods["sum"].params, ["a", "b"])
        # Declaration without body
        self.assertIn("poke", cls.methods)
        self.assertIsNone(cls.methods["poke"].body)

    def test_reference_const_static_flags(self):
        m = parse("""
        class A {
          Sim& sim_;
          const char* label_;
          const int fixed_ = 3;
          static int shared_;
          int normal_;
        };
        """)
        cls = only_class(m, "A")
        by = {mm.name: mm for mm in cls.members}
        self.assertTrue(by["sim_"].is_reference)
        self.assertFalse(by["label_"].is_const)  # pointer-to-const is data
        self.assertTrue(by["fixed_"].is_const)
        self.assertNotIn("shared_", by)  # statics are not instance state
        self.assertFalse(by["normal_"].is_reference)

    def test_in_class_initializers_with_braces_and_calls(self):
        m = parse("""
        class A {
          std::size_t cap_ = IrqBatch::kCapacity;
          std::uint32_t id_ = UINT32_MAX;
          Duration d_{Duration::ns(5)};
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")),
                         ["cap_", "id_", "d_"])

    def test_comma_declarators(self):
        m = parse("class A { int a_, b_ = 2, c_; };")
        self.assertEqual(member_names(only_class(m, "A")), ["a_", "b_", "c_"])


class StructureTest(unittest.TestCase):
    def test_nested_classes(self):
        m = parse("""
        namespace outer {
        class A {
         public:
          struct Inner {
            int deep_;
          };
          Inner inner_;
          int shallow_;
        };
        }  // namespace outer
        """)
        a = only_class(m, "A")
        inner = only_class(m, "Inner")
        self.assertEqual(member_names(a), ["inner_", "shallow_"])
        self.assertEqual(member_names(inner), ["deep_"])
        self.assertEqual(a.qual, "outer::A")
        self.assertEqual(inner.qual, "outer::A::Inner")

    def test_enums_do_not_leak_enumerators_as_members(self):
        m = parse("""
        class A {
          enum class Phase : std::uint8_t { kLearning, kRunning };
          enum Legacy { kOne, kTwo };
          Phase phase_ = Phase::kLearning;
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")), ["phase_"])

    def test_base_classes(self):
        m = parse("""
        class D final : public Base, private mixin::Other {
          int x_;
        };
        """)
        cls = only_class(m, "D")
        self.assertIn("Base", cls.bases)
        self.assertIn("Other", cls.bases)

    def test_attribute_cloned_functions(self):
        # [[gnu::target("avx2")]] clones share a name; the parser must keep
        # parsing past the attribute and not invent members.
        m = parse("""
        class K {
         public:
          [[gnu::target("avx2")]] static int admit(const long* v, int n) {
            return n;
          }
          int plain(int n) { return n; }
         private:
          int state_;
        };
        """)
        cls = only_class(m, "K")
        self.assertEqual(member_names(cls), ["state_"])
        self.assertIn("admit", cls.methods)
        self.assertIn("plain", cls.methods)

    def test_if_guarded_members_are_conditional(self):
        m = parse("""
        class A {
          int always_;
        #if defined(EXTRA)
          int sometimes_;
        #endif
        };
        """)
        cls = only_class(m, "A")
        by = {mm.name: mm for mm in cls.members}
        self.assertFalse(by["always_"].conditional)
        self.assertTrue(by["sometimes_"].conditional)

    def test_template_member_functions(self):
        m = parse("""
        class A {
         public:
          template <typename F>
          void visit(F&& fn) { fn(v_); }
         private:
          int v_;
        };
        """)
        cls = only_class(m, "A")
        self.assertEqual(member_names(cls), ["v_"])
        self.assertIn("visit", cls.methods)


class OutOfLineTest(unittest.TestCase):
    def test_out_of_line_definition_is_recorded_and_linked(self):
        code = """
        class A {
         public:
          template <class Ar>
          void state(Ar& ar);
         private:
          int v_;
        };
        template <class Ar>
        void A::state(Ar& ar) { ar(v_); }
        """
        m = parse(code)
        prog = rthv_lint.ProgramModel()
        prog.add(m)
        prog.link()
        cls = only_class(m, "A")
        self.assertIsNotNone(cls.methods["state"].body)
        self.assertEqual(cls.methods["state"].params, ["ar"])
        body_ids = [t.text for t in cls.methods["state"].body
                    if t.kind == "id"]
        self.assertIn("v_", body_ids)

    def test_default_arguments_do_not_shift_param_names(self):
        m = parse("struct S { void f(int a = compute(3, 4), long tail_ns = 0); };")
        self.assertEqual(only_class(m, "S").methods["f"].params, ["a", "tail_ns"])


class StripTest(unittest.TestCase):
    def test_raw_strings_and_comments(self):
        text = 'auto s = R"x(struct Fake { int y_; })x"; // class C { int z_; }\n'
        stripped = rthv_lint.strip_comments_and_strings(text)
        self.assertNotIn("Fake", stripped)
        self.assertNotIn("z_", stripped)

    def test_block_comment_preserves_lines(self):
        text = "int a;\n/* class B {\n int b_;\n} */\nint c;\n"
        stripped = rthv_lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped.splitlines()), len(text.splitlines()))
        self.assertNotIn("b_", stripped)


if __name__ == "__main__":
    unittest.main(verbosity=2)
