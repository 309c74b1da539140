//===- tests/MaoUnitViewsTest.cpp - Maintained unit views tests -------------==//
//
// MaoUnit's edit primitives keep its sections, function ranges and label
// map current. These tests drive seeded random edits that stay inside the
// edit contract directly on the unit, over the example corpus and every
// SPEC profile, and after every edit compare the maintained views with a
// fresh derivation from the entry list. They also check that moves and
// clone() carry the views.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"
#include "asm/Parser.h"
#include "ir/MaoUnit.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

/// h's label is the first entry of the `.text` run, so a section run and a
/// function range begin there. f is split by a `.rodata` excursion: its
/// `.text` re-entry run starts with an instruction. g has no `.size`, so
/// its range ends at end().
const char *const SplitFunction = R"(	.type	h, @function
	.text
h:
	ret
	.size	h, .-h
	.globl	f
	.type	f, @function
f:
	movl	$1, %eax
	jmp	.L2
	.section	.rodata
.LC0:
	.long	5
	.text
	addl	$3, %eax
	subl	$1, %eax
.L2:
	ret
	.size	f, .-f
	.globl	g
	.type	g, @function
g:
	movl	$2, %eax
	ret
)";

/// Renders views as text: every section and function that has a
/// non-empty range, with its non-empty ranges as entry indices, then the
/// label map sorted by name. Edits may leave emptied ranges behind and a
/// derivation drops them, so they are left out. An iterator that is not
/// an entry of \p Unit renders as "?".
std::string render(MaoUnit &Unit, const std::vector<SectionInfo> &Sections,
                   const std::vector<MaoFunction> &Functions,
                   const std::unordered_map<std::string_view, EntryIter> &Labels) {
  std::unordered_map<const MaoEntry *, size_t> Index;
  for (MaoEntry &E : Unit.entries())
    Index.emplace(&E, Index.size());
  auto At = [&](EntryIter It) {
    if (It == Unit.entries().end())
      return std::string("end");
    auto Found = Index.find(&*It);
    return Found == Index.end() ? std::string("?")
                                : std::to_string(Found->second);
  };
  auto Ranges = [&](const std::string &Head,
                    const std::vector<MaoFunction::Range> &Rs) {
    std::string Out;
    for (const MaoFunction::Range &R : Rs)
      if (R.Begin != R.End)
        Out += " [" + At(R.Begin) + "," + At(R.End) + ")";
    return Out.empty() ? Out : Head + Out + "\n";
  };
  std::string Out;
  for (const SectionInfo &Sec : Sections)
    Out += Ranges("section " + Sec.Name, Sec.Ranges);
  for (const MaoFunction &Fn : Functions)
    Out += Ranges("function " + Fn.name(), Fn.ranges());
  std::vector<std::string> Bound;
  for (const auto &[Name, It] : Labels)
    Bound.push_back("label " + std::string(Name) + " " + At(It) + "\n");
  std::sort(Bound.begin(), Bound.end());
  for (const std::string &L : Bound)
    Out += L;
  return Out;
}

std::string maintained(MaoUnit &Unit) {
  return render(Unit, Unit.sections(), Unit.functions(), Unit.labelMap());
}

std::string derived(MaoUnit &Unit) {
  UnitViews Fresh = Unit.deriveViews();
  return render(Unit, Fresh.Sections, Fresh.Functions, Fresh.Labels);
}

bool isSectionDirective(const MaoEntry &E) {
  return E.isDirective(DirKind::Text) || E.isDirective(DirKind::Data) ||
         E.isDirective(DirKind::Bss) || E.isDirective(DirKind::Section);
}

bool isFunctionLabel(const MaoUnit &Unit, const MaoEntry &E) {
  if (!E.isLabel())
    return false;
  for (const MaoFunction &Fn : Unit.functions())
    if (Fn.name() == E.labelName())
      return true;
  return false;
}

/// Every entry an in-contract edit may erase: instructions, alignment
/// directives and local labels.
bool erasable(const MaoUnit &Unit, const MaoEntry &E) {
  if (E.isInstruction() || E.isDirective(DirKind::P2Align) ||
      E.isDirective(DirKind::Balign))
    return true;
  return E.isLabel() && E.labelName().rfind(".L", 0) == 0 &&
         !isFunctionLabel(Unit, E);
}

MaoEntry randomAlign(RandomSource &Rng) {
  Directive Dir;
  Dir.Kind = DirKind::P2Align;
  Dir.Name = ".p2align";
  Dir.Args = {std::to_string(1 + Rng.nextBelow(5))};
  return MaoEntry::makeDirective(std::move(Dir));
}

/// examples/*.s, every SPEC profile and the split function.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> Corpus =
      exampleAndSpecCorpus();
  Corpus.emplace_back("split-function", SplitFunction);
  return Corpus;
}

TEST(MaoUnitViews, SeededEditsKeepViewsEqualToDerivation) {
  uint64_t Seed = 1;
  for (const auto &[Name, Text] : corpus()) {
    MaoUnit Unit = parseOk(Text);
    ASSERT_EQ(maintained(Unit), derived(Unit)) << Name << " after parse";
    RandomSource Rng(Seed++);
    const unsigned Edits = Unit.entries().size() > 10000 ? 10 : 40;
    unsigned NextLabel = 0;
    for (unsigned I = 0; I < Edits; ++I) {
      std::vector<EntryIter> InRun, Erasable;
      for (EntryIter It = Unit.entries().begin(); It != Unit.entries().end();
           ++It) {
        if (!isSectionDirective(*It))
          InRun.push_back(It);
        if (erasable(Unit, *It))
          Erasable.push_back(It);
      }
      std::string What = Name + " edit " + std::to_string(I);
      const uint64_t Kind = Rng.nextBelow(4);
      if (Kind == 3 && !Erasable.empty()) {
        EntryIter Pos = Erasable[Rng.nextBelow(Erasable.size())];
        What += ": erase " + Pos->toString();
        Unit.erase(Pos);
      } else if (!InRun.empty()) {
        EntryIter Pos = InRun[Rng.nextBelow(InRun.size())];
        MaoEntry New =
            Kind == 0   ? MaoEntry::makeInstruction(makeNop(
                              1 + static_cast<unsigned>(Rng.nextBelow(15))))
            : Kind == 1 ? randomAlign(Rng)
                        : MaoEntry::makeLabel(".LVIEW" +
                                              std::to_string(NextLabel++));
        const bool After = Rng.nextChance(1, 2);
        What += std::string(After ? ": after " : ": before ") +
                Pos->toString() + " insert " + New.toString();
        if (After)
          Unit.insertAfter(Pos, std::move(New));
        else
          Unit.insertBefore(Pos, std::move(New));
      }
      ASSERT_EQ(maintained(Unit), derived(Unit)) << What;
    }
  }
}

EntryIter findEntry(MaoUnit &Unit, const std::string &Text) {
  for (EntryIter It = Unit.entries().begin(); It != Unit.entries().end(); ++It)
    if (It->toString() == Text)
      return It;
  ADD_FAILURE() << "no entry " << Text;
  return Unit.entries().end();
}

TEST(MaoUnitViews, SplitFunctionRunEdgesFollowEdits) {
  MaoUnit Unit = parseOk(SplitFunction);
  ASSERT_EQ(Unit.functions().size(), 3u);
  MaoFunction &H = *Unit.findFunction("h");
  MaoFunction &F = *Unit.findFunction("f");
  MaoFunction &G = *Unit.findFunction("g");
  ASSERT_EQ(F.ranges().size(), 2u);
  auto Check = [&](const std::string &What) {
    EXPECT_EQ(maintained(Unit), derived(Unit)) << What;
  };

  // A pad before h's label starts the .text run but stays out of h.
  EntryIter HLabel = H.ranges().front().Begin;
  EntryIter Pad =
      Unit.insertBefore(HLabel, MaoEntry::makeInstruction(makeNop(2)));
  Check("insert before a function label that starts a run");
  EXPECT_EQ(H.ranges().front().Begin, HLabel);
  // Ranges[0] is the implicit .text run holding `.type h`.
  EXPECT_EQ(Unit.sections()[0].Ranges[1].Begin, Pad);

  // The re-entry run's first entry goes, then a pad takes its place.
  Unit.erase(findEntry(Unit, "\taddl\t$3, %eax"));
  Check("erase the first entry of the re-entry run");
  EXPECT_EQ(F.ranges()[1].Begin->toString(), "\tsubl\t$1, %eax");
  Unit.insertBefore(findEntry(Unit, "\tsubl\t$1, %eax"),
                    MaoEntry::makeInstruction(makeNop(3)));
  Check("insert before the first entry of the re-entry run");
  EXPECT_EQ(F.ranges()[1].Begin->toString(),
            MaoEntry::makeInstruction(makeNop(3)).toString());

  // The first run's last entry goes; its end stays on the directive.
  Unit.erase(findEntry(Unit, "\tjmp\t.L2"));
  Check("erase the last entry of the first run");

  // Empty the .rodata run, then fill it again from its end.
  Unit.erase(findEntry(Unit, "\t.long\t5"));
  Unit.erase(findEntry(Unit, ".LC0:"));
  Check("empty the .rodata run");
  EXPECT_EQ(Unit.labelMap().count(".LC0"), 0u);
  Unit.insertBefore(std::next(findEntry(Unit, "\t.section\t.rodata")),
                    MaoEntry::makeLabel(".LC1"));
  Check("insert into the emptied .rodata run");
  EXPECT_EQ(Unit.labelMap().count(".LC1"), 1u);

  // The last run ends at end(): erase g's last entry and append after it.
  Unit.erase(findEntry(Unit, "\tmovl\t$2, %eax"));
  Unit.insertAfter(std::prev(Unit.entries().end()),
                   MaoEntry::makeInstruction(makeNop(1)));
  Check("edit the run that ends at end()");
  EXPECT_EQ(G.countInstructions(), 2u);
}

TEST(MaoUnitViews, ErasingABoundLabelRebindsItsNextDefinition) {
  MaoUnit Unit = parseOk("\t.text\n.LD:\n\tnop\n.LD:\n\tret\n");
  EntryIter First = Unit.labelMap().at(".LD");
  EntryIter Second = std::next(First, 2);
  Unit.erase(First);
  EXPECT_EQ(Unit.labelMap().at(".LD"), Second);
  EXPECT_EQ(maintained(Unit), derived(Unit));
  Unit.erase(Second);
  EXPECT_EQ(Unit.labelMap().count(".LD"), 0u);
  EXPECT_EQ(maintained(Unit), derived(Unit));
}

TEST(MaoUnitViews, MovesAndCloneCarryTheViews) {
  MaoUnit Unit = parseOk(SplitFunction);
  // Leave an emptied range behind and edit at the run's end.
  Unit.erase(findEntry(Unit, "\t.long\t5"));
  Unit.erase(findEntry(Unit, ".LC0:"));
  Unit.insertAfter(std::prev(Unit.entries().end()),
                   MaoEntry::makeInstruction(makeNop(2)));
  const std::string Want = maintained(Unit);
  ASSERT_EQ(Want, derived(Unit));

  auto ExpectOwnViews = [&](MaoUnit &U, const std::string &What) {
    EXPECT_EQ(maintained(U), Want) << What;
    EXPECT_EQ(derived(U), Want) << What;
    for (MaoFunction &Fn : U.functions())
      EXPECT_EQ(&Fn.unit(), &U) << What << ": " << Fn.name();
    // g's range ends at this unit's end(), so its walk stops there.
    EXPECT_EQ(U.findFunction("g")->countInstructions(), 3u) << What;
  };

  MaoUnit Constructed(std::move(Unit));
  ExpectOwnViews(Constructed, "move-construct");
  EXPECT_TRUE(Unit.entries().empty());
  EXPECT_TRUE(Unit.functions().empty());
  EXPECT_TRUE(Unit.labelMap().empty());

  MaoUnit Assigned = parseOk("\t.text\n\t.type h, @function\nh:\n\tret\n");
  Assigned = std::move(Constructed);
  ExpectOwnViews(Assigned, "move-assign");

  MaoUnit Copy = Assigned.clone();
  ExpectOwnViews(Copy, "clone");
  ExpectOwnViews(Assigned, "clone source");
}

} // namespace
