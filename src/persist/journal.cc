#include "persist/journal.hh"

namespace esd
{

void
applyRecord(CheckpointState &st, const JournalRecord &r)
{
    switch (r.op) {
      case JournalOp::AmtUpdate:
        if (r.b == kInvalidAddr)
            st.amt.erase(r.a);
        else
            st.amt[r.a] = r.b;
        break;
      case JournalOp::RefAdd:
        ++st.refs[r.a];
        break;
      case JournalOp::RefRelease: {
        auto it = st.refs.find(r.a);
        if (it == st.refs.end()) {
            // A release whose matching add predates the checkpoint
            // horizon of a torn group; recovery's AMT reconciliation
            // re-derives the true count.
            break;
        }
        if (--it->second == 0)
            st.refs.erase(r.a);
        break;
      }
      case JournalOp::EfitInsert:
        st.fp[r.a] = r.value;
        break;
      case JournalOp::EfitEvict:
        st.fp.erase(r.a);
        break;
      case JournalOp::CtrBump:
        st.ctr[r.a] = r.value;
        break;
      case JournalOp::LineRetire:
        st.retired.insert(r.a);
        break;
      case JournalOp::DataWrite:
        break;
    }
    if (r.seq > st.seq)
        st.seq = r.seq;
}

} // namespace esd
