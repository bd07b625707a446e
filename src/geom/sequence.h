#ifndef MDSEQ_GEOM_SEQUENCE_H_
#define MDSEQ_GEOM_SEQUENCE_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "geom/mbr.h"
#include "geom/point.h"

namespace mdseq {

class SequenceView;

/// A multidimensional data sequence (paper Definition 1): a series of
/// component vectors `S = (S[1], ..., S[k])` where each `S[i]` is an
/// n-dimensional point. A one-dimensional time series is the special case
/// `dim() == 1`.
///
/// Points are stored contiguously (row-major) so window scans touch memory
/// linearly; `operator[]` hands out borrowed `PointView`s. Indexing is
/// zero-based throughout the library (the paper counts from 1).
class Sequence {
 public:
  /// Creates an empty sequence of points with dimensionality `dim`.
  explicit Sequence(size_t dim);

  /// Creates a sequence from a list of equally sized points.
  Sequence(size_t dim, std::initializer_list<Point> points);

  /// Creates a sequence over `data`, `dim` doubles per point row-major;
  /// `data.size()` must be a multiple of `dim`.
  Sequence(size_t dim, std::vector<double> data);

  /// Creates a 1-dimensional sequence from scalar values.
  static Sequence FromScalars(const std::vector<double>& values);

  /// Dimensionality of every point in the sequence.
  size_t dim() const { return dim_; }

  /// Number of points.
  size_t size() const { return data_.size() / dim_; }

  bool empty() const { return data_.empty(); }

  /// Borrowed view of the i-th point (zero-based).
  PointView operator[](size_t i) const {
    MDSEQ_DCHECK(i < size());
    return PointView(data_.data() + i * dim_, dim_);
  }

  /// Appends one point; its size must equal `dim()`.
  void Append(PointView p);

  /// Appends every point of `other` (dimensions must match).
  void Extend(const SequenceView& other);

  /// Removes all points, keeping the dimensionality.
  void Clear() { data_.clear(); }

  /// Borrowed view of points [begin, end) — paper notation `S[begin+1:end]`.
  SequenceView Slice(size_t begin, size_t end) const;

  /// Borrowed view of the whole sequence.
  SequenceView View() const;

  /// The MBR tightly enclosing every point. Requires a non-empty sequence.
  Mbr BoundingBox() const;

  /// Raw contiguous storage (size() * dim() doubles, row-major).
  const std::vector<double>& data() const { return data_; }

 private:
  size_t dim_;
  std::vector<double> data_;
};

/// A borrowed, contiguous run of points inside a `Sequence` (a subsequence
/// `S[i:j]` in the paper's notation). Cheap to copy; valid only while the
/// owning sequence is alive and unmodified.
class SequenceView {
 public:
  /// Empty view (dim from context; size 0).
  SequenceView() : data_(nullptr), size_(0), dim_(1) {}

  /// View over `size` points of dimension `dim` starting at `data`.
  SequenceView(const double* data, size_t size, size_t dim)
      : data_(data), size_(size), dim_(dim) {
    MDSEQ_DCHECK(dim > 0);
  }

  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Borrowed view of the i-th point of the run (zero-based).
  PointView operator[](size_t i) const {
    MDSEQ_DCHECK(i < size_);
    return PointView(data_ + i * dim_, dim_);
  }

  /// Sub-view of points [begin, end) relative to this view.
  SequenceView Slice(size_t begin, size_t end) const {
    MDSEQ_DCHECK(begin <= end && end <= size_);
    return SequenceView(data_ + begin * dim_, end - begin, dim_);
  }

  /// First `k` points.
  SequenceView Prefix(size_t k) const { return Slice(0, k); }

  /// The MBR tightly enclosing every point of the view (view must be
  /// non-empty).
  Mbr BoundingBox() const;

  /// Materializes the view as an owning `Sequence`.
  Sequence Materialize() const;

 private:
  const double* data_;
  size_t size_;
  size_t dim_;
};

}  // namespace mdseq

#endif  // MDSEQ_GEOM_SEQUENCE_H_
