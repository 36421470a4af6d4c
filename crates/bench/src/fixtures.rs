//! The paper's flex-offers, exactly as printed.

use flexoffers_model::{Assignment, FlexOffer, Slice};

fn fo(tes: i64, tls: i64, slices: &[(i64, i64)]) -> FlexOffer {
    FlexOffer::new(
        tes,
        tls,
        slices
            .iter()
            .map(|&(a, b)| Slice::new(a, b).expect("fixture ranges are ordered"))
            .collect(),
    )
    .expect("fixtures are well-formed")
}

/// Figure 1's running flex-offer
/// `f = ([1,6], <[1,3],[2,4],[0,5],[0,3]>)`.
pub fn figure1() -> FlexOffer {
    fo(1, 6, &[(1, 3), (2, 4), (0, 5), (0, 3)])
}

/// Figure 1's example assignment `fa1 = <2,3,1,2>` at `t = 2`.
pub fn figure1_assignment() -> Assignment {
    Assignment::new(2, vec![2, 3, 1, 2])
}

/// Figure 2 / Example 5's `f1 = ([0,1], <[0,1]>)`.
pub fn f1() -> FlexOffer {
    fo(0, 1, &[(0, 1)])
}

/// Example 13's `f1' = ([0,10], <[0,1]>)`.
pub fn f1_prime() -> FlexOffer {
    fo(0, 10, &[(0, 1)])
}

/// Figure 3 / Example 6's `f2 = ([0,2], <[0,2]>)`.
pub fn f2() -> FlexOffer {
    fo(0, 2, &[(0, 2)])
}

/// Example 7's assignment `f3a = <2,1,3>` at `t = 1`.
pub fn f3_assignment() -> Assignment {
    Assignment::new(1, vec![2, 1, 3])
}

/// Figure 5 / Examples 8 & 10's `f4 = ([0,4], <[2,2]>)`.
pub fn f4() -> FlexOffer {
    fo(0, 4, &[(2, 2)])
}

/// Figure 6 / Examples 9 & 10's `f5 = ([0,4], <[1,1],[2,2]>)`.
pub fn f5() -> FlexOffer {
    fo(0, 4, &[(1, 1), (2, 2)])
}

/// Figure 7 / Examples 14 & 15's mixed
/// `f6 = ([0,2], <[-1,2],[-4,-1],[-3,1]>)` (the paper prints slice 2 as
/// `[-1,-4]`; `amin <= amax` requires `[-4,-1]`, consistent with
/// `cmin = -8`, `cmax = 2`).
pub fn f6() -> FlexOffer {
    fo(0, 2, &[(-1, 2), (-4, -1), (-3, 1)])
}

/// Example 11's `fx = ([2,8], <[5,5]>)` (zero energy flexibility).
pub fn example11_fx() -> FlexOffer {
    fo(2, 8, &[(5, 5)])
}

/// Examples 11–12's `fx = ([1,3], <[1,5]>)`.
pub fn small_fx() -> FlexOffer {
    fo(1, 3, &[(1, 5)])
}

/// Examples 11–12's `fy = ([1,3], <[101,105]>)`.
pub fn large_fy() -> FlexOffer {
    fo(1, 3, &[(101, 105)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_match_paper_quantities() {
        assert_eq!(figure1().time_flexibility(), 5);
        assert_eq!(figure1().energy_flexibility(), 12);
        assert!(figure1().is_valid_assignment(&figure1_assignment()));
        assert_eq!(f2().unconstrained_assignment_count(), Some(9));
        assert_eq!(f6().unconstrained_assignment_count(), Some(240));
        assert_eq!(f6().total_min(), -8);
        assert_eq!(f6().total_max(), 2);
    }
}
