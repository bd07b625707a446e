#include "geom/sequence.h"

#include <utility>

#include "util/check.h"

namespace mdseq {

Sequence::Sequence(size_t dim) : dim_(dim) { MDSEQ_CHECK(dim > 0); }

Sequence::Sequence(size_t dim, std::initializer_list<Point> points)
    : Sequence(dim) {
  for (const Point& p : points) Append(p);
}

Sequence::Sequence(size_t dim, std::vector<double> data)
    : dim_(dim), data_(std::move(data)) {
  MDSEQ_CHECK(dim > 0);
  MDSEQ_CHECK(data_.size() % dim == 0);
}

Sequence Sequence::FromScalars(const std::vector<double>& values) {
  Sequence s(1);
  for (double v : values) s.Append(PointView(&v, 1));
  return s;
}

void Sequence::Append(PointView p) {
  MDSEQ_CHECK(p.size() == dim_);
  data_.insert(data_.end(), p.begin(), p.end());
}

void Sequence::Extend(const SequenceView& other) {
  MDSEQ_CHECK(other.dim() == dim_);
  for (size_t i = 0; i < other.size(); ++i) Append(other[i]);
}

SequenceView Sequence::Slice(size_t begin, size_t end) const {
  MDSEQ_CHECK(begin <= end && end <= size());
  return SequenceView(data_.data() + begin * dim_, end - begin, dim_);
}

SequenceView Sequence::View() const {
  return SequenceView(data_.data(), size(), dim_);
}

Mbr Sequence::BoundingBox() const { return View().BoundingBox(); }

Mbr SequenceView::BoundingBox() const {
  MDSEQ_CHECK(!empty());
  Mbr box(dim_);
  for (size_t i = 0; i < size_; ++i) box.Expand((*this)[i]);
  return box;
}

Sequence SequenceView::Materialize() const {
  Sequence s(dim_);
  for (size_t i = 0; i < size_; ++i) s.Append((*this)[i]);
  return s;
}

}  // namespace mdseq
