//===- support/BitVector.h - Dense dynamic bit vector ----------*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, dynamically sized bit vector.  The paper's complexity results are
/// stated in "bit-vector steps"; this class is the unit of such a step.  It
/// supports the operations the solvers need: or/and/and-not with change
/// detection, population count, and iteration over set bits.  The class also
/// counts word operations globally (when enabled) so benchmarks can report
/// bit-vector work, not just wall-clock time.
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_SUPPORT_BITVECTOR_H
#define IPSE_SUPPORT_BITVECTOR_H

#include "support/OpCount.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipse {

/// A dense bit vector of a fixed (but resizable) universe size.
///
/// All binary operations require both operands to have the same size; this is
/// asserted.  Bits beyond size() are kept clear as a class invariant.
class BitVector {
public:
  using Word = std::uint64_t;
  static constexpr unsigned BitsPerWord = 64;

  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all clear.
  explicit BitVector(std::size_t NumBits)
      : NumBits(NumBits), Words(numWords(NumBits), 0) {}

  /// Returns the universe size in bits.
  std::size_t size() const { return NumBits; }

  /// Returns true if no bit is set.
  bool none() const;

  /// Returns true if at least one bit is set.
  bool any() const { return !none(); }

  /// Returns the number of set bits.
  std::size_t count() const;

  /// Returns bit \p Idx.
  bool test(std::size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / BitsPerWord] >> (Idx % BitsPerWord)) & 1u;
  }

  /// Sets bit \p Idx.
  void set(std::size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] |= Word(1) << (Idx % BitsPerWord);
  }

  /// Clears bit \p Idx.
  void reset(std::size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] &= ~(Word(1) << (Idx % BitsPerWord));
  }

  /// Clears all bits, keeping the size.
  void clear();

  /// Grows or shrinks the universe to \p NumBits bits.  New bits are clear.
  void resize(std::size_t NumBits);

  /// Self |= RHS.  Returns true if any bit of *this changed.
  bool orWith(const BitVector &RHS);

  /// Self &= RHS.  Returns true if any bit of *this changed.
  bool andWith(const BitVector &RHS);

  /// Self &= ~RHS (set subtraction).  Returns true if any bit changed.
  bool andNotWith(const BitVector &RHS);

  /// Self |= (A & ~B), the fused update at the heart of equation (4):
  /// GMOD[p] |= GMOD[q] setminus LOCAL[q].  Returns true if any bit changed.
  bool orWithAndNot(const BitVector &A, const BitVector &B);

  /// Self |= (A & Keep & ~Drop), the per-edge update of the §4 multi-level
  /// algorithm (propagate only the variable levels whose problem crosses
  /// this edge).  Returns true if any bit changed.
  bool orWithIntersectMinus(const BitVector &A, const BitVector &Keep,
                            const BitVector &Drop);

  /// Self |= (A & Keep): orWithIntersectMinus with nothing to drop, one
  /// operand stream cheaper.  Returns true if any bit changed.
  bool orWithIntersect(const BitVector &A, const BitVector &Keep);

  /// Returns true if *this and RHS share at least one set bit.
  bool intersects(const BitVector &RHS) const;

  /// Returns true if every set bit of *this is also set in RHS.
  bool isSubsetOf(const BitVector &RHS) const;

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Returns the index of the first set bit at or after \p From, or size()
  /// if there is none.
  std::size_t findNext(std::size_t From) const;

  /// Calls \p Fn(Idx) for every set bit in increasing order.
  template <typename FnT> void forEachSetBit(FnT Fn) const {
    for (std::size_t I = findNext(0); I < NumBits; I = findNext(I + 1))
      Fn(I);
  }

  /// Appends the indices of all set bits to \p Out.
  void getSetBits(std::vector<std::size_t> &Out) const;

  /// Forward iteration over set bits, enabling range-based for loops.
  class const_iterator {
  public:
    const_iterator(const BitVector &BV, std::size_t Idx) : BV(&BV), Idx(Idx) {}
    std::size_t operator*() const { return Idx; }
    const_iterator &operator++() {
      Idx = BV->findNext(Idx + 1);
      return *this;
    }
    bool operator==(const const_iterator &RHS) const { return Idx == RHS.Idx; }
    bool operator!=(const const_iterator &RHS) const { return Idx != RHS.Idx; }

  private:
    const BitVector *BV;
    std::size_t Idx;
  };

  const_iterator begin() const { return const_iterator(*this, findNext(0)); }
  const_iterator end() const { return const_iterator(*this, NumBits); }

  /// \name Raw word access (persistence)
  /// The snapshot codec streams vectors as (bit count, word array); these
  /// expose the storage without copying.  assignWords() re-establishes the
  /// clear-unused-bits invariant, so even a corrupted word array that slips
  /// past checksumming cannot poison set-algebra results with ghost bits.
  /// @{
  const Word *rawWords() const { return Words.data(); }
  std::size_t rawWordCount() const { return Words.size(); }
  void assignWords(std::size_t Bits, const Word *Data, std::size_t Count) {
    assert(Count == numWords(Bits) && "word count must match bit count");
    NumBits = Bits;
    Words.assign(Data, Data + Count);
    clearUnusedBits();
  }
  /// @}

  /// \name Bit-vector operation accounting
  /// The paper measures algorithms in bit-vector steps; every word-level
  /// operation performed by the binary operators above is counted, letting
  /// benchmarks report machine-independent work.  Forwarders to the shared
  /// registry in support/OpCount.h, which EffectSet also feeds — one total
  /// covers both set types.
  /// @{
  static void resetOpCount() { ops::reset(); }
  static std::uint64_t opCount() { return ops::total(); }
  /// @}

private:
  static std::size_t numWords(std::size_t Bits) {
    return (Bits + BitsPerWord - 1) / BitsPerWord;
  }

  /// Clears the unused high bits of the last word (class invariant).
  void clearUnusedBits();

  /// Adds \p N word operations to this thread's counter.
  static void countOps(std::uint64_t N) { ops::add(N); }

  std::size_t NumBits = 0;
  std::vector<Word> Words;
};

} // namespace ipse

#endif // IPSE_SUPPORT_BITVECTOR_H
