# Generated by scripts/gen_task_space.py; do not edit by hand.
# generator sha256: 17cf34ce187268ccb5c864c6f3c18e6ebec0a8cf1d7716922d8b1af1ea651307
# sympy 1.14.0
"""Closed-form task-space model: Mbar, Cbar and the forward accelerations.

Arguments are the parameter set p, read by attribute, and plain floats:
the platform angle alpha, the chassis heading theta = alpha - phi_p, the
task velocity (dx, dy, da), the heading rate dth = da - dphi_p, the
torques (u0, u1, u2) and the pivot force (fx, fy).

The state sensitivities are in otbot._task_sensitivity.
"""

from math import cos, sin

# the robot parameters a sensitivity lane can follow, by seed row
SEEDED = ('mc', 'Ic', 'xB', 'yB', 'mp', 'Ip', 'xF', 'yF')


def task_space_model(p, alpha, theta, da, dth):
    """Entries of Mbar and Cbar, row by row, as two 9-tuples."""
    l1 = p.l1
    l2 = p.l2
    r = p.r
    xB = p.xB
    yB = p.yB
    xF = p.xF
    yF = p.yF
    mc = p.mc
    mp = p.mp
    Ic = p.Ic
    Ip = p.Ip
    Ia = p.Ia
    bw = p.bw
    bp = p.bp
    ca = cos(alpha)
    sa = sin(alpha)
    ct = cos(theta)
    st = sin(theta)
    t0 = ct*l1
    t1 = l2*st
    t2 = t0 - t1
    t3 = 1/l1
    t4 = 1/r
    t5 = Ia*t4
    t6 = t3*t5
    t7 = ct*l2
    t8 = l1*st
    t9 = t7 - t8
    t10 = 1/l2
    t11 = (1/2)*r*t10
    t12 = t11*(mc + mp)
    t13 = ca*yF
    t14 = ct*yB
    t15 = st*xB
    t16 = sa*xF
    t17 = mc*t14 + mc*t15 + mp*t13 + mp*t16
    t18 = t11*t17
    t19 = t0 + t1
    t20 = ct*xB
    t21 = st*yB
    t22 = t20 - t21
    t23 = mc*t22
    t24 = t19*t23
    t25 = t14 + t15
    t26 = mc*t25
    t27 = t26*t9
    t28 = Ic + mc*(xB*xB + yB*yB)
    t29 = t11*t3
    t30 = t29*(t24 - t27 + t28)
    t31 = t7 + t8
    t32 = ca*xF
    t33 = sa*yF
    t34 = mc*t20 - mc*t21 + mp*t32 - mp*t33
    t35 = t11*t34
    t36 = Ip + mp*(xF*xF + yF*yF)
    t37 = t29*(t2*t23 + t26*t31 + t28)
    t38 = t13 + t16
    t39 = t32 - t33
    t40 = dth*t5
    t41 = dth*t11
    t42 = t28*t41
    t43 = ct*t42
    t44 = ct*t22 - st*t25
    t45 = mc*t41
    t46 = t19*t45
    t47 = ct*t25
    t48 = st*t22 + t47
    t49 = st*t42
    t50 = da*mp*t11
    t51 = bw*t4
    t52 = t31*t45
    t53 = t2*t45
    t54 = bp*t3
    m00 = -st*t30 + t12*t9 - t18 + t2*t6
    m01 = ct*t30 + t12*t19 + t31*t6 + t35
    m02 = t11*(-t17*t9 + t19*t34 - t24 + t27 + t36)
    m10 = st*t37 + t12*t31 + t18 + t19*t6
    m11 = -ct*t37 - t12*t2 - t35 - t6*t9
    m12 = t11*(mc*t2*t22 + mc*t25*t31 - t17*t31 - t2*t34 - t36)
    m20 = -mp*t38
    m21 = mp*t39
    m22 = t36
    c00 = t3*(bw*t2*t4 + (1/2)*dth*mc*r*t10*t48*t9 - t31*t40 - t43 - t44*t46)
    c01 = t3*(Ia*dth*t2*t4 + bw*t31*t4 - t44*t45*t9 - t46*(st*t22 + t47) - t49)
    c02 = -t50*(t19*t38 + t39*t9)
    c10 = t3*(t19*t51 + t40*t9 + t43 + t44*t53 + t48*t52)
    c11 = t3*(t19*t40 - t44*t52 + t48*t53 + t49 - t51*t9)
    c12 = t50*(t2*t38 - t31*t39)
    c20 = st*t54
    c21 = -ct*t54
    c22 = bp
    return (m00, m01, m02, m10, m11, m12, m20, m21, m22), (c00, c01, c02, c10, c11, c12, c20, c21, c22)


def accelerations(p, alpha, theta, dx, dy, da, dth, u0, u1, u2, fx, fy):
    """(ddp, ddphi) under torques u and a pivot force (fx, fy), as a 6-tuple."""
    l1 = p.l1
    l2 = p.l2
    r = p.r
    xB = p.xB
    yB = p.yB
    xF = p.xF
    yF = p.yF
    mc = p.mc
    mp = p.mp
    Ic = p.Ic
    Ip = p.Ip
    Ia = p.Ia
    bw = p.bw
    bp = p.bp
    ca = cos(alpha)
    sa = sin(alpha)
    ct = cos(theta)
    st = sin(theta)
    t0 = ct*l1
    t1 = l2*st
    t2 = t0 - t1
    t3 = 1/r
    t4 = t2*t3
    t5 = 1/l1
    t6 = Ia*t5
    t7 = ct*l2
    t8 = l1*st
    t9 = t7 - t8
    t10 = r/l2
    t11 = (1/2)*t10
    t12 = t11*(mc + mp)
    t13 = ca*yF
    t14 = ct*yB
    t15 = st*xB
    t16 = sa*xF
    t17 = mc*t14 + mc*t15 + mp*t13 + mp*t16
    t18 = t11*t17
    t19 = t0 + t1
    t20 = ct*xB
    t21 = st*yB
    t22 = t20 - t21
    t23 = mc*t22
    t24 = t19*t23
    t25 = t14 + t15
    t26 = mc*t25
    t27 = t26*t9
    t28 = Ic + mc*(xB*xB + yB*yB)
    t29 = t11*t5
    t30 = t29*(t24 - t27 + t28)
    t31 = t7 + t8
    t32 = t3*t6
    t33 = ca*xF
    t34 = sa*yF
    t35 = mc*t20 - mc*t21 + mp*t33 - mp*t34
    t36 = t11*t35
    t37 = Ip + mp*(xF*xF + yF*yF)
    t38 = t29*(t2*t23 + t26*t31 + t28)
    t39 = t13 + t16
    t40 = t33 - t34
    t41 = fy*t11
    t42 = fx*t11
    t43 = da*da*mp*t11
    t44 = 2*bw
    t45 = dth*t31
    t46 = 2*Ia*t3
    t47 = dth*t10
    t48 = t28*t47
    t49 = ct*t48
    t50 = ct*t22 - st*t25
    t51 = -t50
    t52 = mc*t47
    t53 = t19*t52
    t54 = ct*t25
    t55 = st*t22 + t54
    t56 = t52*t9
    t57 = (1/2)*t5
    t58 = dx*t57
    t59 = st*t48
    t60 = st*t22 + t54
    t61 = dy*t57
    t62 = t3*t44
    t63 = dth*t46
    t64 = mc*t10*t45
    t65 = t2*t52
    t66 = bp*t5
    m00 = -st*t30 + t12*t9 - t18 + t4*t6
    m01 = ct*t30 + t12*t19 + t31*t32 + t36
    m02 = t11*(-t17*t9 + t19*t35 - t24 + t27 + t37)
    m10 = st*t38 + t12*t31 + t18 + t19*t32
    m11 = -ct*t38 - t12*t2 - t32*t9 - t36
    m12 = t11*(mc*t2*t22 + mc*t25*t31 - t17*t31 - t2*t35 - t37)
    m20 = -mp*t39
    m21 = mp*t40
    m22 = t37
    b0 = t19*t41 + t42*t9 + t43*(t19*t39 + t40*t9) - t58*(t4*t44 - t45*t46 - t49 + t51*t53 + t55*t56) - t61*(2*Ia*dth*t2*t3 + 2*bw*t3*t31 - t50*t56 - t53*t60 - t59) + u0
    b1 = -t2*t41 + t31*t42 + t43*(-t2*t39 + t31*t40) - t58*(t19*t62 + t49 - t51*t65 + t55*t64 + t63*t9) - t61*(t19*t63 - t50*t64 + t59 + t60*t65 - t62*t9) + u1
    b2 = -bp*da + ct*dy*t66 - dx*st*t66 + u2
    a00 = m11 * m22 - m12 * m21
    a01 = m02 * m21 - m01 * m22
    a02 = m01 * m12 - m02 * m11
    a10 = m12 * m20 - m10 * m22
    a11 = m00 * m22 - m02 * m20
    a12 = m02 * m10 - m00 * m12
    a20 = m10 * m21 - m11 * m20
    a21 = m01 * m20 - m00 * m21
    a22 = m00 * m11 - m01 * m10
    inv_det = 1.0 / (m00 * a00 + m01 * a10 + m02 * a20)
    ddx = (a00 * b0 + a01 * b1 + a02 * b2) * inv_det
    ddy = (a10 * b0 + a11 * b1 + a12 * b2) * inv_det
    dda = (a20 * b0 + a21 * b1 + a22 * b2) * inv_det
    s0 = ct*l2
    s1 = l1*st
    s2 = s0 + s1
    s3 = ct*l1
    s4 = l2*st
    s5 = s3 - s4
    s6 = dth*dx
    s7 = dth*dy
    s8 = 1/l1
    s9 = s8/r
    s10 = s3 + s4
    s11 = s0 - s1
    s12 = s8*st
    s13 = ct*s8
    ddphi_r = s9*(ddx*s5 + ddy*s2 - s2*s6 + s5*s7)
    ddphi_l = s9*(ddx*s10 - ddy*s11 + s10*s7 + s11*s6)
    ddphi_p = dda + ddx*s12 - ddy*s13 + s12*s7 + s13*s6
    return ddx, ddy, dda, ddphi_r, ddphi_l, ddphi_p
